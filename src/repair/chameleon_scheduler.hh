/**
 * @file
 * The ChameleonEC coordinator: drives repair in phases of T_phase
 * seconds (Section III-A), admitting chunks against the monitor's
 * residual-bandwidth estimates until the estimated phase time is
 * exhausted, establishing tunable plans (Section III-B via the
 * planner), and running straggler-aware re-scheduling (Section
 * III-C): repair re-tuning redirects a delayed relay download to the
 * destination; transmission re-ordering postpones a straggling
 * chunk's remaining tasks into a waiting queue and wakes them when
 * their nodes fall idle or a backoff expires. A straggler is an edge
 * past its expectation whose in-flight transmission made no progress
 * since the previous check. Accounting, reservations and crash
 * re-plans live in the RepairDriver base.
 */

#ifndef CHAMELEON_REPAIR_CHAMELEON_SCHEDULER_HH_
#define CHAMELEON_REPAIR_CHAMELEON_SCHEDULER_HH_

#include <map>
#include <memory>
#include <set>

#include "repair/chameleon_planner.hh"
#include "repair/driver.hh"
#include "repair/monitor.hh"
#include "telemetry/metrics.hh"
#include "util/rng.hh"

namespace chameleon {
namespace repair {

/** Multi-node repair ordering policies (Section III-D). */
enum class RepairPriority {
    kSequential,      ///< failed chunks in discovery order
    kMostFailedFirst, ///< stripes with more lost chunks first
    kShortestFirst,   ///< least repair traffic first
};

/** Scheduler tuning; defaults follow the paper's Section V-A. */
struct ChameleonConfig
{
    /** Repair phase length (paper default 20 s, swept in Exp#3). */
    SimTime tPhase = 20.0;
    /** Straggler-detection check period. */
    SimTime checkPeriod = 2.0;
    /** An edge is a straggler once it runs this many seconds past
     * its expectation. */
    SimTime stragglerSlack = 5.0;
    /**
     * Safety multiplier applied to planner expectations before
     * straggler comparison: residual-bandwidth estimates are
     * conservative about what a task really achieves once repair
     * and elastic foreground traffic share links, so raw estimates
     * would flag healthy tasks.
     */
    double expectationFactor = 2.0;
    /**
     * Maximum postponement of a re-ordered chunk before its tasks
     * restart opportunistically (the paper restarts them within the
     * phase when their nodes free up, or in the next phase).
     */
    SimTime reorderBackoff = 5.0;
    /** Ablation switches (Exp#11: ETRP = both off, full = both on). */
    bool enableReordering = true;
    bool enableRetuning = true;
    RepairPriority priority = RepairPriority::kSequential;

    bool operator==(const ChameleonConfig &) const = default;
};

/** The coordinator; see file comment. */
class ChameleonScheduler : public RepairDriver
{
  public:
    ChameleonScheduler(cluster::StripeTable &stripes,
                       RepairExecutor &executor,
                       BandwidthMonitor &monitor, ChameleonConfig config,
                       Rng rng, RetryConfig retry = {});

    int phasesRun() const { return phasesRun_; }
    int retunes() const { return retunes_; }
    int reorders() const { return reorders_; }

  private:
    /** Restarts the phase/check loops with the first phase's event
     * ordering if they are not running, else admits. */
    void admit() override;
    /** After a crash or a retry queued work: restarts the loops if
     * they died with a finished scheduler (check loop first), then
     * admits. */
    void resume() override;
    /** Closes the phase span and traces the finish. */
    void onFinished(SimTime when) override;
    void runPhase();
    /** Admits pending chunks against the current phase state until
     * the estimated phase budget is spent. */
    void admitPending();
    void progressCheck();
    void onChunkDone(const ChunkRepairPlan &plan, SimTime when);
    void onChunkFailed(const ChunkRepairPlan &plan, SimTime when);
    /** Credits a departed plan's tasks back to the phase budget. */
    void releasePlanBudget(const ChunkRepairPlan &plan);
    /** Drops completed ids from the active set and its side maps. */
    void sweepInactive();
    enum class Admission {
        kAdmitted,
        kNoBudget,
        kNoDestination,
        kUnrecoverable
    };
    Admission admitChunk(PlannerState &state,
                         const cluster::FailedChunk &chunk,
                         bool force);
    std::vector<cluster::FailedChunk> orderedPending() const;

    BandwidthMonitor &monitor_;
    ChameleonConfig config_;
    Rng rng_;

    /** Dispatcher state of the current phase (counts + estimates). */
    std::unique_ptr<PlannerState> phaseState_;
    /** End time of the current phase. */
    SimTime phaseEnd_ = 0.0;
    std::set<RepairId> activeIds_;
    /** Postponed chunks and the time their backoff expires. */
    std::map<RepairId, SimTime> pausedIds_;
    /** Per-edge delivered counts at the previous progress check,
     * used to detect zero-progress (crawling) transmissions. */
    std::map<RepairId, std::vector<int>> lastDelivered_;

    /** Metric handles (see telemetry/metrics.hh). */
    telemetry::Counter &metPhases_;
    telemetry::Counter &metDispatches_;
    telemetry::Counter &metChecks_;
    telemetry::Counter &metStragglers_;
    telemetry::Counter &metRetunes_;
    telemetry::Counter &metReorders_;
    /** True while a phase span is open on the scheduler track. */
    bool phaseSpanOpen_ = false;

    int phasesRun_ = 0;
    int retunes_ = 0;
    int reorders_ = 0;
    /** True while the self-rescheduling loops are alive; they stop
     * when the scheduler finishes and a crash may restart them. */
    bool phaseLoopActive_ = false;
    bool checkLoopActive_ = false;
    /** Re-entrancy guard: the outcome hook can feed new work back
     * in synchronously (scanner admission pump) while admitPending
     * iterates; coalesce such calls into another admission round. */
    bool admitting_ = false;
    bool readmit_ = false;
};

} // namespace repair
} // namespace chameleon

#endif // CHAMELEON_REPAIR_CHAMELEON_SCHEDULER_HH_
