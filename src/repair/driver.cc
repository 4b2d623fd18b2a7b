#include "repair/driver.hh"

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace repair {

RepairDriver::RepairDriver(cluster::StripeTable &stripes,
                           RepairExecutor &executor, RetryConfig retry,
                           const std::string &metric_prefix)
    : stripes_(stripes), executor_(executor), retry_(retry),
      metUnrecoverable_(metric_prefix + ".unrecoverable"),
      metCrashReplans_(metric_prefix + ".crash_replans"),
      startTime_(executor.cluster().simulator().now()),
      finishTime_(startTime_)
{
    CHAMELEON_ASSERT(retry_.maxRetries >= 0, "negative retry budget");
    CHAMELEON_ASSERT(retry_.backoff >= 0, "negative retry backoff");
}

sim::Simulator &
RepairDriver::simulator() const
{
    return executor_.cluster().simulator();
}

void
RepairDriver::enqueue(const std::vector<cluster::FailedChunk> &chunks)
{
    if (chunks.empty())
        return;
    for (const auto &fc : chunks) {
        pending_.push_back(fc);
        ++outstanding_;
        // A chunk already declared unrecoverable is the same loss
        // coming back for another look, not a new one.
        if (!unrecoverableKeys_.count({fc.stripe, fc.chunk}))
            ++totalChunks_;
    }
    admit();
}

void
RepairDriver::onNodeCrash(
    NodeId node, const std::vector<cluster::FailedChunk> &newly_lost)
{
    // Abort doomed in-flight repairs first; each abort lands in the
    // driver's failure path and schedules its own re-plan.
    executor_.abortChunksTouching(node);
    for (const auto &fc : newly_lost) {
        pending_.push_back(fc);
        ++outstanding_;
        ++totalChunks_;
    }
    // Stripe geometry changed: parked chunks may be plannable now
    // (or newly unrecoverable; admission sorts them).
    requeueDeferred();
    resume();
}

Rate
RepairDriver::throughput() const
{
    CHAMELEON_ASSERT(finished(), "repair not finished");
    if (chunksRepaired_ == 0)
        return 0.0;
    SimTime span = finishTime_ - startTime_;
    CHAMELEON_ASSERT(span > 0, "zero-length repair");
    return static_cast<double>(chunksRepaired_) *
           executor_.config().chunkSize / span;
}

RepairDriver::Gate
RepairDriver::gate(const cluster::FailedChunk &fc) const
{
    auto avail = stripes_.availableChunks(fc.stripe);
    auto pool = stripes_.code().helperPool(fc.chunk, avail);
    if (static_cast<int>(pool.candidates.size()) < pool.required)
        return Gate::kUnrecoverable;
    if (!freeDestinations(fc.stripe).empty())
        return Gate::kOpen;
    return reserved_.count(fc.stripe) ? Gate::kBusy
                                      : Gate::kUnrecoverable;
}

bool
RepairDriver::passGate(const cluster::FailedChunk &fc)
{
    switch (gate(fc)) {
      case Gate::kOpen:
        return true;
      case Gate::kBusy:
        deferred_.push_back(fc);
        return false;
      case Gate::kUnrecoverable:
        markUnrecoverable(fc);
        return false;
    }
    return false;
}

void
RepairDriver::requeueDeferred()
{
    while (!deferred_.empty()) {
        pending_.push_back(deferred_.front());
        deferred_.pop_front();
    }
}

std::vector<NodeId>
RepairDriver::reservedDestinations(StripeId stripe) const
{
    auto it = reserved_.find(stripe);
    if (it == reserved_.end())
        return {};
    return {it->second.begin(), it->second.end()};
}

std::vector<NodeId>
RepairDriver::freeDestinations(StripeId stripe) const
{
    auto dests = stripes_.candidateDestinations(stripe);
    auto it = reserved_.find(stripe);
    if (it != reserved_.end())
        std::erase_if(dests,
                      [&](NodeId d) { return it->second.count(d); });
    return dests;
}

void
RepairDriver::reserve(StripeId stripe, NodeId destination)
{
    reserved_[stripe].insert(destination);
}

void
RepairDriver::releaseReservation(StripeId stripe, NodeId destination)
{
    auto it = reserved_.find(stripe);
    if (it == reserved_.end())
        return;
    it->second.erase(destination);
    if (it->second.empty())
        reserved_.erase(it);
}

void
RepairDriver::completeRepair(const ChunkRepairPlan &plan)
{
    const cluster::FailedChunk fc{plan.stripe, plan.failedChunk};
    stripes_.markRepaired(fc.stripe, fc.chunk);
    stripes_.relocate(fc.stripe, fc.chunk, plan.destination);
    releaseReservation(fc.stripe, plan.destination);
    --outstanding_;
    ++chunksRepaired_;
    if (unrecoverableKeys_.erase({fc.stripe, fc.chunk}))
        std::erase(unrecoverable_, fc);
    // Before the caller's finished() check: the hook may admit
    // queued work (via the scanner pump), which extends the feed.
    if (outcomeHook_)
        outcomeHook_(fc, true);
}

void
RepairDriver::markUnrecoverable(const cluster::FailedChunk &fc)
{
    --outstanding_;
    if (unrecoverableKeys_.insert({fc.stripe, fc.chunk}).second) {
        unrecoverable_.push_back(fc);
        CHAMELEON_TELEM(telemetry::tracer().instant(
            simulator().now(), telemetry::kTrackFault, "fault",
            "unrecoverable",
            {{"stripe", fc.stripe}, {"chunk", fc.chunk}}));
        telemetry::metrics().counter(metUnrecoverable_).add();
    }
    if (outcomeHook_)
        outcomeHook_(fc, false);
}

bool
RepairDriver::spendRetry(const cluster::FailedChunk &fc)
{
    ++crashReplans_;
    telemetry::metrics().counter(metCrashReplans_).add();
    CHAMELEON_ASSERT(stripes_.chunkLost(fc.stripe, fc.chunk),
                     "aborted chunk is not lost");
    return ++retries_[{fc.stripe, fc.chunk}] <= retry_.maxRetries;
}

void
RepairDriver::retryLater(const cluster::FailedChunk &fc, SimTime when)
{
    if (!spendRetry(fc)) {
        markUnrecoverable(fc);
        settle(when);
        return;
    }
    // Re-plan after a backoff so the burst of aborts from one crash
    // settles before replacement plans pick sources.
    ++retriesInAir_;
    simulator().scheduleAfter(retry_.backoff, [this, fc] {
        --retriesInAir_;
        pending_.push_back(fc);
        resume();
    });
}

bool
RepairDriver::settle(SimTime when)
{
    if (!finished())
        return false;
    finishTime_ = when;
    onFinished(when);
    return true;
}

} // namespace repair
} // namespace chameleon
