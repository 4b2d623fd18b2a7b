#include "repair/session.hh"

#include "repair/dag_bridge.hh"
#include "util/logging.hh"

namespace chameleon {
namespace repair {

RepairSession::RepairSession(cluster::StripeTable &stripes,
                             RepairExecutor &executor, PlanFn plan_fn,
                             SessionConfig config,
                             dag::TopologySpec topology,
                             RetryConfig retry)
    : RepairDriver(stripes, executor, retry, "repair.session"),
      planFn_(std::move(plan_fn)), config_(config),
      topology_(topology)
{
    CHAMELEON_ASSERT(config_.maxInFlight >= 1,
                     "window must be at least 1");
    CHAMELEON_ASSERT(planFn_ != nullptr, "null plan factory");
}

int
RepairSession::pendingCount() const
{
    return static_cast<int>(pending_.size()) + deferredCount() +
           retriesInAir_;
}

void
RepairSession::pump()
{
    while (inFlight_ < config_.maxInFlight && !pending_.empty()) {
        cluster::FailedChunk fc = pending_.front();
        pending_.pop_front();
        if (!passGate(fc))
            continue;
        ChunkRepairPlan plan =
            planFn_(fc, reservedDestinations(fc.stripe));
        reserve(fc.stripe, plan.destination);

        ++inFlight_;
        auto on_done = [this](const ChunkRepairPlan &p, SimTime t) {
            onChunkDone(p, t);
        };
        auto on_fail = [this](const ChunkRepairPlan &p, NodeId,
                              SimTime t) { onChunkFailed(p, t); };
        if (topology_.kind != dag::RepairTopology::kAuto) {
            // Topology override: keep the planner's source set (and
            // coefficients) but execute it in the requested DAG
            // shape, slice-pipelined.
            dag::EcDag d = dag::buildTopologyDag(
                topology_, plan.stripe, plan.failedChunk,
                plan.destination, toDagSources(plan.sources),
                plan.combinable);
            executor_.launchDag(d, plan, std::move(on_done),
                                std::move(on_fail));
        } else {
            executor_.launch(plan, std::move(on_done),
                             std::move(on_fail));
        }
    }
    settle(simulator().now());
}

void
RepairSession::onChunkDone(const ChunkRepairPlan &plan, SimTime when)
{
    --inFlight_;
    completeRepair(plan);
    if (settle(when))
        return;
    // A completion frees a destination: parked chunks get another
    // shot at planning.
    requeueDeferred();
    pump();
}

void
RepairSession::onChunkFailed(const ChunkRepairPlan &plan, SimTime when)
{
    --inFlight_;
    releaseReservation(plan.stripe, plan.destination);
    retryLater({plan.stripe, plan.failedChunk}, when);
}

} // namespace repair
} // namespace chameleon
