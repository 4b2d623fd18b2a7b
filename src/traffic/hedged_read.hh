/**
 * @file
 * Hedged/adaptive degraded reads.
 *
 * A client reading a chunk that lived on a failed node must
 * reconstruct it from helpers — a degraded read. Tail latency of
 * such reads is dominated by the slowest helper, so this manager
 * applies the classic hedged-request policy (Dean & Barroso, "The
 * Tail at Scale") to the repair fan-in:
 *
 *   1. issue the bandwidth-cheapest helper set from the code's
 *      HelperPool (ranked by BandwidthMonitor service estimates);
 *   2. arm a straggler timer at hedgeMultiplier times the estimated
 *      completion time of that attempt;
 *   3. on expiry, identify the laggard helper from the executor's
 *      per-edge progress, and launch a second attempt that avoids it
 *      (different helper set where the code allows one, different
 *      destination always);
 *   4. first attempt to land wins; the loser is canceled through
 *      RepairExecutor::cancel() — a scheduling decision, not a
 *      failure, so no abort metric or failure callback fires.
 *
 * The manager is a repair::RepairDriver like the session and the
 * ChameleonEC scheduler: work enters through enqueue() (the eager
 * work list, the replicator scanner, scrub detections), accounting,
 * reservations and crash retries live in the base, and the outcome
 * hook fires once per read. The scenario knobs live under
 * "degraded" (see runtime/scenario.hh).
 */

#ifndef CHAMELEON_TRAFFIC_HEDGED_READ_HH_
#define CHAMELEON_TRAFFIC_HEDGED_READ_HH_

#include <map>

#include "repair/driver.hh"
#include "repair/monitor.hh"
#include "util/stats.hh"

namespace chameleon {
namespace traffic {

/** Degraded-read policy knobs (scenario key "degraded"). */
struct HedgedReadConfig
{
    /** Route the run's repairs through the hedged-read manager. */
    bool enabled = false;
    /** Arm hedge timers (false = single-attempt baseline, the
     * no-hedge comparison leg). */
    bool hedge = true;
    /** Timer = hedgeMultiplier * estimated attempt completion. */
    double hedgeMultiplier = 1.5;
    /** Floor on the timer, so sub-second estimates do not hedge on
     * scheduling noise. */
    SimTime hedgeMinDelay = 0.5;
    /** Hedged attempts per read on top of the primary. */
    int maxHedges = 1;
    /** Concurrent degraded reads in flight. */
    int maxInFlight = 32;

    bool operator==(const HedgedReadConfig &) const = default;
};

/** Windowed hedged degraded-read runner; see file comment. */
class HedgedReadManager : public repair::RepairDriver
{
  public:
    HedgedReadManager(cluster::StripeTable &stripes,
                      repair::RepairExecutor &executor,
                      const repair::BandwidthMonitor &monitor,
                      HedgedReadConfig config,
                      repair::RetryConfig retry = {});

    /** Hedged attempts launched / won against their primary. */
    int hedgesIssued() const { return hedgesIssued_; }
    int hedgeWins() const { return hedgeWins_; }

    /** Issue-to-completion latency of every finished read (s). */
    const LatencyRecorder &latencies() const { return latencies_; }

  private:
    /** One launched reconstruction attempt of a read. */
    struct Attempt
    {
        repair::RepairId id = repair::kInvalidRepair;
        NodeId destination = kInvalidNode;
    };

    /** One degraded read, possibly racing two attempts. */
    struct Read
    {
        cluster::FailedChunk chunk;
        Attempt primary;
        Attempt hedge;
        int hedges = 0;
        /** Invalidates in-flight timer callbacks after completion,
         * hedging, or re-planning. */
        uint64_t generation = 0;
        SimTime issued = 0.0;
    };

    using Key = std::pair<StripeId, ChunkIndex>;

    void admit() override { pump(); }
    void pump();
    void issueRead(const cluster::FailedChunk &fc);
    /**
     * Plans and launches one attempt: cheapest helpers by service
     * estimate (skipping `avoid_helper` when the code allows a
     * choice), best-service destination other than `avoid_dest`.
     * Invalid Attempt when no viable plan exists.
     */
    Attempt launchAttempt(const cluster::FailedChunk &fc,
                          NodeId avoid_helper, NodeId avoid_dest);
    /** Estimated completion time (s from now) of `plan`. */
    SimTime estimateCompletion(const repair::ChunkRepairPlan &plan)
        const;
    void armTimer(Read &read, SimTime estimate);
    void onTimer(Key key, uint64_t generation);
    void onAttemptDone(const repair::ChunkRepairPlan &plan,
                       SimTime when);
    void onAttemptFailed(const repair::ChunkRepairPlan &plan,
                         SimTime when);
    /** Ends the read at `it` as unrecoverable. */
    void giveUp(std::map<Key, Read>::iterator it, SimTime when);

    const repair::BandwidthMonitor &monitor_;
    HedgedReadConfig config_;
    /** In-flight reads; a read's primary and hedge (and concurrent
     * reads of sibling chunks) hold distinct destination
     * reservations. */
    std::map<Key, Read> active_;
    int hedgesIssued_ = 0;
    int hedgeWins_ = 0;
    LatencyRecorder latencies_;
};

} // namespace traffic
} // namespace chameleon

#endif // CHAMELEON_TRAFFIC_HEDGED_READ_HH_
