/**
 * @file
 * Full-node repair session for the baseline algorithms: keeps a
 * bounded window of chunk repairs in flight (as HDFS reconstruction
 * work queues do), builds each chunk's plan through a pluggable plan
 * factory (random baseline or RepairBoost selection), and executes
 * it as the planner's tree or, under a topology override, as a
 * slice-pipelined DAG. Accounting, reservations and crash re-plans
 * live in the RepairDriver base.
 */

#ifndef CHAMELEON_REPAIR_SESSION_HH_
#define CHAMELEON_REPAIR_SESSION_HH_

#include "repair/driver.hh"

namespace chameleon {
namespace repair {

/** Baseline session tuning (scenario key "session"). */
struct SessionConfig
{
    /**
     * Concurrent chunk repairs. Full-node repair in production
     * systems keeps the cluster saturated with reconstruction work
     * (HDFS runs multiple streams per DataNode); the executor's
     * per-node task slots then bound the actual parallelism, so a
     * generous window here models "repair as fast as the nodes
     * allow".
     */
    int maxInFlight = 64;

    bool operator==(const SessionConfig &) const = default;
};

/** Windowed baseline repair runner; see file comment. */
class RepairSession : public RepairDriver
{
  public:
    /**
     * Produces a plan for one failed chunk.
     * @param reserved destinations concurrent repairs of the same
     *                 stripe already claimed.
     */
    using PlanFn = std::function<ChunkRepairPlan(
        const cluster::FailedChunk &,
        const std::vector<NodeId> &reserved)>;

    /**
     * @param topology execution-topology override: instead of running
     *        the planner's tree directly, rebuild each plan's source
     *        set into this DAG shape (chain, PPR, MLF, star) and
     *        execute it slice-pipelined via RepairExecutor::launchDag.
     *        kAuto (the default) keeps the planner's native tree
     *        execution. Non-combinable plans always degrade to the
     *        star.
     */
    RepairSession(cluster::StripeTable &stripes,
                  RepairExecutor &executor, PlanFn plan_fn,
                  SessionConfig config = {},
                  dag::TopologySpec topology = {},
                  RetryConfig retry = {});

    /** Chunks waiting to be planned (parked + backoff included). */
    int pendingCount() const;
    int inFlightCount() const { return inFlight_; }

  private:
    void admit() override { pump(); }
    void pump();
    void onChunkDone(const ChunkRepairPlan &plan, SimTime when);
    void onChunkFailed(const ChunkRepairPlan &plan, SimTime when);

    PlanFn planFn_;
    SessionConfig config_;
    /** Execution-topology override; kAuto = native tree path. */
    dag::TopologySpec topology_;
    int inFlight_ = 0;
};

} // namespace repair
} // namespace chameleon

#endif // CHAMELEON_REPAIR_SESSION_HH_
