#include "traffic/hedged_read.hh"

#include <algorithm>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace traffic {

HedgedReadManager::HedgedReadManager(
    cluster::StripeTable &stripes, repair::RepairExecutor &executor,
    const repair::BandwidthMonitor &monitor, HedgedReadConfig config,
    repair::RetryConfig retry)
    : RepairDriver(stripes, executor, retry, "degraded"),
      monitor_(monitor), config_(config)
{
    CHAMELEON_ASSERT(config_.maxInFlight >= 1,
                     "window must be at least 1");
    CHAMELEON_ASSERT(config_.hedgeMultiplier >= 1.0,
                     "hedge multiplier below the estimate itself");
    CHAMELEON_ASSERT(config_.maxHedges >= 0, "negative hedge budget");
}

void
HedgedReadManager::pump()
{
    while (static_cast<int>(active_.size()) < config_.maxInFlight &&
           !pending_.empty()) {
        cluster::FailedChunk fc = pending_.front();
        pending_.pop_front();
        issueRead(fc);
    }
    settle(simulator().now());
}

void
HedgedReadManager::issueRead(const cluster::FailedChunk &fc)
{
    // Sibling reads of this stripe may hold every candidate
    // destination; passGate() parks the read until one completes.
    if (!passGate(fc))
        return;

    Key key{fc.stripe, fc.chunk};
    auto [it, inserted] = active_.try_emplace(key);
    CHAMELEON_ASSERT(inserted, "duplicate degraded read for stripe ",
                     fc.stripe, " chunk ", fc.chunk);
    Read &read = it->second;
    read.chunk = fc;
    read.issued = simulator().now();
    read.primary = launchAttempt(fc, kInvalidNode, kInvalidNode);
    if (read.primary.id == repair::kInvalidRepair) {
        giveUp(it, simulator().now());
        return;
    }
    if (config_.hedge && read.hedges < config_.maxHedges)
        armTimer(read,
                 estimateCompletion(executor_.plan(read.primary.id)));
}

HedgedReadManager::Attempt
HedgedReadManager::launchAttempt(const cluster::FailedChunk &fc,
                                 NodeId avoid_helper, NodeId avoid_dest)
{
    auto avail = stripes_.availableChunks(fc.stripe);
    auto pool = stripes_.code().helperPool(fc.chunk, avail);
    if (static_cast<int>(pool.candidates.size()) < pool.required)
        return {};

    // Bandwidth-cheapest helper set: when the code offers a choice,
    // rank candidates by their estimated service rate (stable, so
    // ties resolve by chunk index — deterministic across runs) and
    // take the cheapest `required`. A hedge additionally avoids the
    // primary's laggard node when enough candidates remain.
    std::vector<ChunkIndex> helpers;
    if (pool.fixedSet) {
        helpers = pool.candidates;
    } else {
        auto cands = pool.candidates;
        if (avoid_helper != kInvalidNode) {
            auto filtered = cands;
            std::erase_if(filtered, [&](ChunkIndex c) {
                return stripes_.location(fc.stripe, c) == avoid_helper;
            });
            if (static_cast<int>(filtered.size()) >= pool.required)
                cands = std::move(filtered);
        }
        std::stable_sort(
            cands.begin(), cands.end(),
            [&](ChunkIndex a, ChunkIndex b) {
                return monitor_.serviceUp(
                           stripes_.location(fc.stripe, a)) >
                       monitor_.serviceUp(
                           stripes_.location(fc.stripe, b));
            });
        cands.resize(static_cast<std::size_t>(pool.required));
        std::sort(cands.begin(), cands.end());
        helpers = std::move(cands);
    }
    auto spec = stripes_.code().specFor(fc.chunk, helpers);
    if (!spec)
        spec = stripes_.code().specFor(fc.chunk, pool.candidates);
    if (!spec)
        return {};

    // Destination: best estimated ingest service among candidates
    // not already claimed by a racing attempt.
    auto dests = freeDestinations(fc.stripe);
    std::erase(dests, avoid_dest);
    if (dests.empty())
        return {};
    NodeId dest = dests.front();
    for (NodeId d : dests) {
        if (monitor_.serviceDown(d) > monitor_.serviceDown(dest))
            dest = d;
    }

    std::vector<repair::PlanSource> sources;
    for (const auto &read : spec->reads) {
        repair::PlanSource src;
        src.node = stripes_.location(fc.stripe, read.helper);
        src.chunk = read.helper;
        src.coeff = read.coeff;
        src.fraction = read.fraction;
        sources.push_back(src);
    }
    repair::ChunkRepairPlan plan =
        repair::buildStarPlan(fc.stripe, fc.chunk, dest,
                              std::move(sources), spec->combinable);

    Attempt attempt;
    attempt.destination = dest;
    reserve(fc.stripe, dest);
    attempt.id = executor_.launch(
        plan,
        [this](const repair::ChunkRepairPlan &p, SimTime t) {
            onAttemptDone(p, t);
        },
        [this](const repair::ChunkRepairPlan &p, NodeId, SimTime t) {
            onAttemptFailed(p, t);
        });
    return attempt;
}

SimTime
HedgedReadManager::estimateCompletion(
    const repair::ChunkRepairPlan &plan) const
{
    const Bytes chunk = executor_.config().chunkSize;
    double total_fraction = 0.0;
    SimTime longest = 0.0;
    for (const auto &src : plan.sources) {
        Rate up = std::max(monitor_.serviceUp(src.node), Rate(1.0));
        longest = std::max(longest, src.fraction * chunk / up);
        total_fraction += src.fraction;
    }
    Rate down =
        std::max(monitor_.serviceDown(plan.destination), Rate(1.0));
    longest = std::max(longest, total_fraction * chunk / down);
    return longest;
}

void
HedgedReadManager::armTimer(Read &read, SimTime estimate)
{
    SimTime delay = std::max(estimate * config_.hedgeMultiplier,
                             config_.hedgeMinDelay);
    Key key{read.chunk.stripe, read.chunk.chunk};
    uint64_t gen = read.generation;
    simulator().scheduleAfter(
        delay, [this, key, gen] { onTimer(key, gen); });
}

void
HedgedReadManager::onTimer(Key key, uint64_t generation)
{
    auto it = active_.find(key);
    if (it == active_.end())
        return;
    Read &read = it->second;
    if (read.generation != generation)
        return;
    if (read.hedges >= config_.maxHedges)
        return;
    if (read.primary.id == repair::kInvalidRepair ||
        !executor_.chunkActive(read.primary.id))
        return;

    // Identify the laggard: the unfinished edge with the smallest
    // delivered fraction. The hedge avoids its node so a straggling
    // helper cannot slow both attempts.
    const auto &plan = executor_.plan(read.primary.id);
    NodeId laggard = kInvalidNode;
    double worst = 2.0;
    for (const auto &edge : executor_.edgeStatus(read.primary.id)) {
        if (edge.done)
            continue;
        double frac =
            edge.slicesTotal > 0
                ? static_cast<double>(edge.slicesDelivered) /
                      edge.slicesTotal
                : 0.0;
        if (frac < worst) {
            worst = frac;
            laggard = plan
                          .sources[static_cast<std::size_t>(
                              edge.source)]
                          .node;
        }
    }

    Attempt hedge = launchAttempt(read.chunk, laggard,
                                  read.primary.destination);
    if (hedge.id == repair::kInvalidRepair)
        return;
    read.hedge = hedge;
    ++read.hedges;
    ++hedgesIssued_;
    telemetry::metrics().counter("degraded.hedges").add();
    CHAMELEON_TELEM(telemetry::tracer().instant(
        simulator().now(), telemetry::kTrackScheduler, "repair",
        "hedge",
        {{"stripe", read.chunk.stripe},
         {"chunk", read.chunk.chunk},
         {"laggard", laggard}}));
    if (read.hedges < config_.maxHedges)
        armTimer(read, estimateCompletion(executor_.plan(hedge.id)));
}

void
HedgedReadManager::onAttemptDone(const repair::ChunkRepairPlan &plan,
                                 SimTime when)
{
    Key key{plan.stripe, plan.failedChunk};
    auto it = active_.find(key);
    CHAMELEON_ASSERT(it != active_.end(),
                     "completion for unknown degraded read");
    Read &read = it->second;
    const bool hedge_won =
        read.hedge.id != repair::kInvalidRepair &&
        plan.destination == read.hedge.destination;
    Attempt &loser = hedge_won ? read.primary : read.hedge;
    if (loser.id != repair::kInvalidRepair) {
        // The race is decided: tear the loser down silently (a
        // scheduling decision, not a failure).
        executor_.cancel(loser.id);
        releaseReservation(plan.stripe, loser.destination);
    }
    if (hedge_won) {
        ++hedgeWins_;
        telemetry::metrics().counter("degraded.hedge_wins").add();
    }
    latencies_.record(when - read.issued);
    active_.erase(it);
    // Each read owns its retry budget: a later loss of the same
    // chunk is a new read.
    retries_.erase(key);
    completeRepair(plan);
    if (settle(when))
        return;
    requeueDeferred();
    pump();
}

void
HedgedReadManager::onAttemptFailed(const repair::ChunkRepairPlan &plan,
                                   SimTime when)
{
    Key key{plan.stripe, plan.failedChunk};
    auto it = active_.find(key);
    if (it == active_.end())
        return;
    Read &read = it->second;
    Attempt *attempt = nullptr;
    if (read.primary.id != repair::kInvalidRepair &&
        plan.destination == read.primary.destination)
        attempt = &read.primary;
    else if (read.hedge.id != repair::kInvalidRepair &&
             plan.destination == read.hedge.destination)
        attempt = &read.hedge;
    if (attempt == nullptr)
        return;
    releaseReservation(plan.stripe, attempt->destination);
    *attempt = Attempt{};
    // The sibling attempt may still be racing; let it finish the
    // read on its own.
    if (read.primary.id != repair::kInvalidRepair ||
        read.hedge.id != repair::kInvalidRepair)
        return;

    ++read.generation; // kill stale hedge timers
    if (!spendRetry(read.chunk)) {
        giveUp(it, when);
        return;
    }
    // Re-issue after a backoff so the burst of aborts from one crash
    // settles before the replacement attempt picks helpers. The read
    // stays in active_ (window-held) with its original issue time,
    // so its eventual latency includes the crash detour.
    uint64_t gen = read.generation;
    simulator().scheduleAfter(retry_.backoff, [this, key, gen] {
        auto entry = active_.find(key);
        if (entry == active_.end() ||
            entry->second.generation != gen)
            return;
        Read &retry = entry->second;
        retry.primary =
            launchAttempt(retry.chunk, kInvalidNode, kInvalidNode);
        if (retry.primary.id == repair::kInvalidRepair) {
            giveUp(entry, simulator().now());
            return;
        }
        if (config_.hedge && retry.hedges < config_.maxHedges)
            armTimer(retry, estimateCompletion(
                                executor_.plan(retry.primary.id)));
    });
}

void
HedgedReadManager::giveUp(std::map<Key, Read>::iterator it,
                          SimTime when)
{
    const cluster::FailedChunk fc = it->second.chunk;
    retries_.erase(it->first);
    active_.erase(it);
    markUnrecoverable(fc);
    settle(when);
}

} // namespace traffic
} // namespace chameleon
