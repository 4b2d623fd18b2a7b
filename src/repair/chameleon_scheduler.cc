#include "repair/chameleon_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace repair {

ChameleonScheduler::ChameleonScheduler(cluster::StripeTable &stripes,
                                       RepairExecutor &executor,
                                       BandwidthMonitor &monitor,
                                       ChameleonConfig config, Rng rng,
                                       RetryConfig retry)
    : RepairDriver(stripes, executor, retry, "repair.chameleon"),
      monitor_(monitor), config_(config), rng_(rng),
      metPhases_(
          telemetry::metrics().counter("repair.chameleon.phases")),
      metDispatches_(
          telemetry::metrics().counter("repair.chameleon.dispatches")),
      metChecks_(
          telemetry::metrics().counter("repair.chameleon.checks")),
      metStragglers_(telemetry::metrics().counter(
          "repair.chameleon.stragglers")),
      metRetunes_(
          telemetry::metrics().counter("repair.chameleon.retunes")),
      metReorders_(
          telemetry::metrics().counter("repair.chameleon.reorders"))
{
    CHAMELEON_ASSERT(config_.tPhase > 0, "tPhase must be positive");
    CHAMELEON_ASSERT(config_.checkPeriod > 0,
                     "checkPeriod must be positive");
}

void
ChameleonScheduler::admit()
{
    // The first phase begins (and admits) before the progress-check
    // timer is armed.
    if (!phaseLoopActive_) {
        phaseLoopActive_ = true;
        runPhase();
    } else if (phaseState_) {
        admitPending();
    }
    if (!checkLoopActive_) {
        checkLoopActive_ = true;
        simulator().scheduleAfter(config_.checkPeriod,
                                  [this] { progressCheck(); });
    }
}

void
ChameleonScheduler::resume()
{
    if (pending_.empty())
        return;
    if (!checkLoopActive_) {
        checkLoopActive_ = true;
        simulator().scheduleAfter(config_.checkPeriod,
                                  [this] { progressCheck(); });
    }
    if (!phaseLoopActive_) {
        phaseLoopActive_ = true;
        // runPhase() builds fresh monitor state, admits, and
        // re-schedules itself.
        runPhase();
    }
    if (phaseState_)
        admitPending();
}

std::vector<cluster::FailedChunk>
ChameleonScheduler::orderedPending() const
{
    std::vector<cluster::FailedChunk> out(pending_.begin(),
                                          pending_.end());
    switch (config_.priority) {
      case RepairPriority::kSequential:
        break;
      case RepairPriority::kMostFailedFirst: {
        // Stripes missing more chunks are more exposed to further
        // failures: repair them first.
        std::stable_sort(
            out.begin(), out.end(),
            [&](const cluster::FailedChunk &a,
                const cluster::FailedChunk &b) {
                auto lost = [&](StripeId s) {
                    return stripes_.code().n() -
                           static_cast<int>(
                               stripes_.availableChunks(s).size());
                };
                return lost(a.stripe) > lost(b.stripe);
            });
        break;
      }
      case RepairPriority::kShortestFirst: {
        // Less repair traffic first (proxy for repair time).
        std::stable_sort(
            out.begin(), out.end(),
            [&](const cluster::FailedChunk &a,
                const cluster::FailedChunk &b) {
                auto traffic = [&](const cluster::FailedChunk &fc) {
                    auto avail = stripes_.availableChunks(fc.stripe);
                    return stripes_.code()
                        .helperPool(fc.chunk, avail)
                        .required;
                };
                return traffic(a) < traffic(b);
            });
        break;
      }
    }
    return out;
}

ChameleonScheduler::Admission
ChameleonScheduler::admitChunk(PlannerState &state,
                               const cluster::FailedChunk &chunk,
                               bool force)
{
    switch (gate(chunk)) {
      case Gate::kOpen:
        break;
      case Gate::kBusy:
        return Admission::kNoDestination;
      case Gate::kUnrecoverable:
        return Admission::kUnrecoverable;
    }
    auto avail = stripes_.availableChunks(chunk.stripe);
    auto pool = stripes_.code().helperPool(chunk.chunk, avail);

    PlannerChunkInput input;
    input.stripe = chunk.stripe;
    input.failed = chunk.chunk;
    input.required = pool.required;
    input.fixedSet = pool.fixedSet;
    input.combinable = pool.combinable;
    for (ChunkIndex c : pool.candidates) {
        input.helperChunks.push_back(c);
        input.helperNodes.push_back(stripes_.location(chunk.stripe, c));
        input.fractions.push_back(1.0);
    }
    if (!pool.combinable) {
        // Sub-chunk codes carry per-helper fractions; fetch them from
        // a concrete spec.
        auto spec = stripes_.code().specFor(chunk.chunk,
                                            pool.candidates);
        CHAMELEON_ASSERT(spec.has_value(), "fixed-set spec failed");
        for (std::size_t i = 0; i < input.helperChunks.size(); ++i) {
            for (const auto &read : spec->reads) {
                if (read.helper == input.helperChunks[i])
                    input.fractions[i] = read.fraction;
            }
        }
    }
    input.destCandidates = freeDestinations(chunk.stripe);

    // Snapshot for rollback if the estimate rejects the chunk.
    auto up_snapshot = state.taskUp;
    auto down_snapshot = state.taskDown;

    auto planned = planChunk(state, input);
    if (!planned)
        return Admission::kNoDestination;
    // Admit only if the in-flight work is expected to finish within
    // the remaining phase (completions release budget, see
    // onChunkDone, so early finishes let more chunks in mid-phase).
    const SimTime budget = phaseEnd_ - simulator().now();
    if (!force && planned->estimatedTime > budget) {
        state.taskUp = std::move(up_snapshot);
        state.taskDown = std::move(down_snapshot);
        return Admission::kNoBudget;
    }

    // Fill decoding coefficients for the chosen helper set.
    ChunkRepairPlan plan = std::move(planned->plan);
    if (plan.combinable) {
        std::vector<ChunkIndex> helpers;
        for (const auto &src : plan.sources)
            helpers.push_back(src.chunk);
        auto spec = stripes_.code().specFor(chunk.chunk, helpers);
        if (!spec) {
            // The bandwidth-chosen helper set cannot repair this
            // pattern (non-MDS corner case): fall back to the code's
            // default helpers in a star.
            state.taskUp = std::move(up_snapshot);
            state.taskDown = std::move(down_snapshot);
            Rng helper_rng = rng_.split();
            auto fspec = stripes_.code().makeRepairSpec(
                chunk.chunk, avail, helper_rng);
            std::vector<PlanSource> sources;
            for (const auto &read : fspec.reads) {
                PlanSource src;
                src.node = stripes_.location(chunk.stripe, read.helper);
                src.chunk = read.helper;
                src.coeff = read.coeff;
                src.fraction = read.fraction;
                sources.push_back(src);
            }
            plan = buildStarPlan(chunk.stripe, chunk.chunk,
                                 plan.destination, std::move(sources),
                                 fspec.combinable);
            planned->edgeExpectation.assign(plan.sources.size(),
                                            config_.tPhase);
        } else {
            for (auto &src : plan.sources) {
                src.coeff = gf::kZero;
                for (const auto &read : spec->reads) {
                    if (read.helper == src.chunk)
                        src.coeff = read.coeff;
                }
            }
        }
    }

    reserve(chunk.stripe, plan.destination);
    SimTime now = simulator().now();
    RepairId id = executor_.launch(
        plan,
        [this](const ChunkRepairPlan &p, SimTime t) {
            onChunkDone(p, t);
        },
        [this](const ChunkRepairPlan &p, NodeId, SimTime t) {
            onChunkFailed(p, t);
        });
    activeIds_.insert(id);
    for (std::size_t j = 0; j < plan.sources.size(); ++j) {
        executor_.setEdgeExpectation(
            id, static_cast<int>(j),
            now + planned->edgeExpectation[j] *
                      config_.expectationFactor +
                config_.stragglerSlack);
    }
    metDispatches_.add();
    CHAMELEON_TELEM(telemetry::tracer().instant(
        now, telemetry::kTrackScheduler, "repair", "dispatch",
        {{"stripe", plan.stripe},
         {"chunk", plan.failedChunk},
         {"dest", plan.destination},
         {"sources", plan.sources.size()},
         {"est_s", planned->estimatedTime},
         {"forced", force ? 1 : 0}}));
    return Admission::kAdmitted;
}

void
ChameleonScheduler::runPhase()
{
    if (finished()) {
        // The loop dies here; a later crash or retry restarts it
        // through resume().
        phaseLoopActive_ = false;
        return;
    }
    ++phasesRun_;
    metPhases_.add();
    auto &sim = simulator();
    if (phaseSpanOpen_) {
        CHAMELEON_TELEM(telemetry::tracer().end(
            sim.now(), telemetry::kTrackScheduler));
    }
    CHAMELEON_TELEM(telemetry::tracer().begin(
        sim.now(), telemetry::kTrackScheduler, "repair", "phase",
        {{"index", phasesRun_},
         {"pending", pending_.size()},
         {"active", activeIds_.size()}}));
    phaseSpanOpen_ = true;

    // Postponed tasks restart opportunistically in the next phase.
    for (const auto &[id, resume_at] : pausedIds_) {
        if (executor_.chunkActive(id))
            executor_.resumeChunk(id);
    }
    pausedIds_.clear();

    // Fresh per-phase dispatcher state from the monitor's estimates.
    const int nodes = stripes_.numNodes();
    phaseState_ = std::make_unique<PlannerState>(
        PlannerState::make(nodes, executor_.config().chunkSize));
    phaseState_->serviceUp.resize(static_cast<std::size_t>(nodes));
    phaseState_->serviceDown.resize(static_cast<std::size_t>(nodes));
    for (NodeId n = 0; n < nodes; ++n) {
        phaseState_->bandUp[static_cast<std::size_t>(n)] =
            monitor_.dispatchUp(n);
        phaseState_->bandDown[static_cast<std::size_t>(n)] =
            monitor_.dispatchDown(n);
        phaseState_->serviceUp[static_cast<std::size_t>(n)] =
            monitor_.serviceUp(n);
        phaseState_->serviceDown[static_cast<std::size_t>(n)] =
            monitor_.serviceDown(n);
    }
    const auto &exec_cfg = executor_.config();
    phaseState_->relayTaskPenalty =
        exec_cfg.chunkSize / units::MiB * exec_cfg.relayOverheadPerMiB;
    phaseEnd_ = sim.now() + config_.tPhase;

    // Seed the fresh phase with the tasks still in flight so the new
    // estimates account for carried-over work.
    for (RepairId id : activeIds_) {
        if (!executor_.chunkActive(id))
            continue;
        const auto &plan = executor_.plan(id);
        for (const auto &st : executor_.edgeStatus(id)) {
            if (st.done)
                continue;
            NodeId src = plan.sources[static_cast<std::size_t>(
                                          st.source)]
                             .node;
            NodeId tgt =
                st.target == kToDestination
                    ? plan.destination
                    : plan.sources[static_cast<std::size_t>(st.target)]
                          .node;
            phaseState_->taskUp[static_cast<std::size_t>(src)] += 1;
            phaseState_->taskDown[static_cast<std::size_t>(tgt)] += 1;
        }
    }

    admitPending();
    sim.scheduleAfter(config_.tPhase, [this] { runPhase(); });
}

void
ChameleonScheduler::admitPending()
{
    if (!phaseState_)
        return;
    // The outcome hook can synchronously feed new chunks back in
    // mid-iteration (scanner admission pump); re-entering would
    // double-admit chunks still in the snapshot below. Coalesce
    // nested calls into another full admission round instead.
    if (admitting_) {
        readmit_ = true;
        return;
    }
    admitting_ = true;
    do {
        readmit_ = false;
        // Admission: priority order, estimate-bounded; always make
        // progress when nothing is in flight.
        auto ordered = orderedPending();
        std::set<std::pair<StripeId, ChunkIndex>> departed;
        for (const auto &chunk : ordered) {
            bool force = departed.empty() && activeIds_.empty();
            Admission result = admitChunk(*phaseState_, chunk, force);
            if (result == Admission::kAdmitted) {
                departed.insert({chunk.stripe, chunk.chunk});
            } else if (result == Admission::kUnrecoverable) {
                markUnrecoverable(chunk);
                departed.insert({chunk.stripe, chunk.chunk});
            } else if (result == Admission::kNoBudget) {
                break; // estimate exhausted: stop admitting for now
            }
            // kNoDestination: skip this chunk, try the others.
        }
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (departed.count({it->stripe, it->chunk}))
                it = pending_.erase(it);
            else
                ++it;
        }
        settle(simulator().now());
    } while (readmit_);
    admitting_ = false;
}

void
ChameleonScheduler::progressCheck()
{
    if (finished()) {
        checkLoopActive_ = false;
        return;
    }
    auto &sim = simulator();
    const SimTime now = sim.now();
    metChecks_.add();

    // First pass: per-edge progress deltas since the last check, and
    // the cluster-wide median delta of actively transmitting edges.
    // A straggler is an edge past its expectation whose in-flight
    // transmission crawls far below that median: queued edges are
    // just waiting their turn, and uniform slowness is congestion.
    std::map<RepairId, std::vector<int>> deltas;
    std::vector<int> active_deltas;
    for (RepairId id : activeIds_) {
        if (!executor_.chunkActive(id) || executor_.chunkPaused(id))
            continue;
        auto statuses = executor_.edgeStatus(id);
        auto &last = lastDelivered_[id];
        bool fresh = last.empty();
        if (fresh)
            last.assign(statuses.size(), -1);
        auto &dd = deltas[id];
        dd.assign(statuses.size(), -1);
        for (const auto &st : statuses) {
            int prev = last[static_cast<std::size_t>(st.source)];
            last[static_cast<std::size_t>(st.source)] =
                st.slicesDelivered;
            if (prev < 0)
                continue; // first observation
            int delta = st.slicesDelivered - prev;
            dd[static_cast<std::size_t>(st.source)] = delta;
            if (st.active && !st.done)
                active_deltas.push_back(delta);
        }
    }
    std::sort(active_deltas.begin(), active_deltas.end());
    const int median_delta =
        active_deltas.empty()
            ? 0
            : active_deltas[active_deltas.size() / 2];
    // How many chunks would keep the cluster busy if one is
    // postponed; re-ordering only pays off when other work exists.
    int unpaused_active = 0;
    for (RepairId id : activeIds_)
        if (executor_.chunkActive(id) && !executor_.chunkPaused(id))
            ++unpaused_active;

    for (RepairId id : std::vector<RepairId>(activeIds_.begin(),
                                             activeIds_.end())) {
        if (!executor_.chunkActive(id) || executor_.chunkPaused(id))
            continue;
        auto statuses = executor_.edgeStatus(id);
        const auto &dd = deltas[id];
        for (const auto &st : statuses) {
            if (st.done || st.expectation == kTimeNever ||
                now <= st.expectation)
                continue;
            if (!st.active)
                continue; // queued behind other tasks, not straggling
            int delta = dd.empty()
                            ? -1
                            : dd[static_cast<std::size_t>(st.source)];
            if (delta < 0)
                continue; // no baseline yet
            // Crawling: far below the cluster's going rate (which
            // must itself be meaningful — a draining tail with a
            // few slow edges is not a straggler situation).
            if (median_delta < 1 || delta * 8 >= median_delta)
                continue;
            metStragglers_.add();
            CHAMELEON_TELEM(telemetry::tracer().instant(
                now, telemetry::kTrackScheduler, "repair",
                "straggler",
                {{"source",
                  executor_.plan(id).sources[static_cast<std::size_t>(
                                       st.source)]
                      .node},
                 {"stripe", executor_.plan(id).stripe},
                 {"delta", delta},
                 {"median", median_delta}}));
            // A delayed download at a relay source can be re-tuned
            // to the destination (Section III-C, Figure 10(b)).
            if (config_.enableRetuning &&
                st.target != kToDestination && !st.retuned) {
                executor_.retuneEdge(id, st.source);
                executor_.setEdgeExpectation(
                    id, st.source, now + config_.stragglerSlack);
                ++retunes_;
                metRetunes_.add();
                CHAMELEON_TELEM(telemetry::tracer().instant(
                    now, telemetry::kTrackScheduler, "repair",
                    "retune",
                    {{"source",
                      executor_.plan(id).sources[static_cast<std::size_t>(
                                           st.source)]
                          .node},
                     {"stripe", executor_.plan(id).stripe}}));
                continue;
            }
            // Otherwise postpone the chunk's remaining tasks so other
            // chunks' repairs are not dragged down (Figure 10(a)).
            if (config_.enableReordering &&
                !executor_.chunkPaused(id) && unpaused_active > 4) {
                executor_.pauseChunk(id);
                pausedIds_[id] = now + config_.reorderBackoff;
                ++reorders_;
                metReorders_.add();
                CHAMELEON_TELEM(telemetry::tracer().instant(
                    now, telemetry::kTrackScheduler, "repair",
                    "reorder",
                    {{"stripe", executor_.plan(id).stripe},
                     {"backoff_s", config_.reorderBackoff}}));
                break;
            }
        }
    }

    // Wake-up scan: a postponed chunk resumes once its nodes are no
    // longer busy with other repair tasks, or when its backoff
    // expires (opportunistic restart within the phase).
    for (auto it = pausedIds_.begin(); it != pausedIds_.end();) {
        RepairId id = it->first;
        if (!executor_.chunkActive(id)) {
            it = pausedIds_.erase(it);
            continue;
        }
        const auto &plan = executor_.plan(id);
        bool idle = executor_.activeEdgesTouching(plan.destination) == 0;
        for (const auto &src : plan.sources) {
            if (!idle)
                break;
            idle = executor_.activeEdgesTouching(src.node) == 0;
        }
        if (idle || now >= it->second) {
            executor_.resumeChunk(id);
            // Give resumed edges a fresh expectation window.
            auto statuses = executor_.edgeStatus(id);
            for (const auto &st : statuses) {
                if (!st.done)
                    executor_.setEdgeExpectation(
                        id, st.source,
                        now + config_.tPhase);
            }
            it = pausedIds_.erase(it);
        } else {
            ++it;
        }
    }

    sim.scheduleAfter(config_.checkPeriod, [this] { progressCheck(); });
}

void
ChameleonScheduler::releasePlanBudget(const ChunkRepairPlan &plan)
{
    // Release the chunk's task budget so the phase can top up.
    // Re-tuned plans may credit a different node than was debited;
    // clamping keeps the drift harmless until the phase resets.
    if (!phaseState_)
        return;
    auto debit = [](int &count) {
        if (count > 0)
            --count;
    };
    for (const auto &src : plan.sources) {
        debit(phaseState_->taskUp[static_cast<std::size_t>(
            src.node)]);
        NodeId tgt =
            src.parent == kToDestination
                ? plan.destination
                : plan.sources[static_cast<std::size_t>(src.parent)]
                      .node;
        debit(phaseState_->taskDown[static_cast<std::size_t>(tgt)]);
    }
}

void
ChameleonScheduler::sweepInactive()
{
    for (auto iter = activeIds_.begin(); iter != activeIds_.end();) {
        if (!executor_.chunkActive(*iter)) {
            pausedIds_.erase(*iter);
            lastDelivered_.erase(*iter);
            iter = activeIds_.erase(iter);
        } else {
            ++iter;
        }
    }
}

void
ChameleonScheduler::onFinished(SimTime when)
{
    if (phaseSpanOpen_) {
        CHAMELEON_TELEM(telemetry::tracer().end(
            when, telemetry::kTrackScheduler));
        phaseSpanOpen_ = false;
    }
    CHAMELEON_TELEM(telemetry::tracer().instant(
        when, telemetry::kTrackScheduler, "repair", "finished",
        {{"chunks", chunksRepaired()},
         {"unrecoverable", chunksUnrecoverable()},
         {"phases", phasesRun_}}));
}

void
ChameleonScheduler::onChunkDone(const ChunkRepairPlan &plan, SimTime when)
{
    releasePlanBudget(plan);
    sweepInactive();
    completeRepair(plan);
    if (settle(when))
        return;
    admitPending();
}

void
ChameleonScheduler::onChunkFailed(const ChunkRepairPlan &plan,
                                  SimTime when)
{
    releasePlanBudget(plan);
    releaseReservation(plan.stripe, plan.destination);
    sweepInactive();
    retryLater({plan.stripe, plan.failedChunk}, when);
}

} // namespace repair
} // namespace chameleon
