/**
 * @file
 * RepairDriver: the coordinator role every repair layer plays
 * (PAPER.md Fig. 11): take failed chunks, dispatch one repair plan
 * per chunk through the executor, and report each chunk's outcome.
 * The full-node repair session, the ChameleonEC scheduler and the
 * hedged degraded-read manager differ only in their admission
 * policy; this base owns the rest:
 *
 *   - the single entry for work, enqueue(), fed alike by the eager
 *     work list, the replicator scanner's admitted batches and scrub
 *     detections;
 *   - the accounting: feed start and finish times, total, repaired
 *     and unrecoverable chunks, crash re-plans;
 *   - the per-chunk outcome hook (scanner queue release, scrub
 *     bookkeeping);
 *   - per-stripe destination reservations, so concurrent repairs of
 *     one stripe land on distinct nodes;
 *   - crash handling: abort the repairs touching a dead node, queue
 *     the chunks the crash destroyed, and re-plan aborted chunks
 *     after a backoff within a per-chunk retry budget.
 *
 * Construction opens the feed: the start time is the construction
 * instant, and a driver with no work is finished.
 *
 * Accounting counts losses, not dispatches. The replicator scanner
 * re-queues every unrecoverable stripe on each sweep, so a chunk
 * already declared unrecoverable can come back. It goes through
 * admission again without being counted again: if it is still
 * unrecoverable it only gets its outcome (so the queue releases it),
 * and if it is repaired later it moves from unrecoverable to
 * repaired. finished() still waits for it, so event timing does not
 * depend on the de-duplication.
 */

#ifndef CHAMELEON_REPAIR_DRIVER_HH_
#define CHAMELEON_REPAIR_DRIVER_HH_

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/stripe_table.hh"
#include "repair/executor.hh"

namespace chameleon {
namespace repair {

/** Crash-retry policy shared by every driver (scenario key
 * "retry"). */
struct RetryConfig
{
    /** Crash-abort re-plans per chunk before giving up on it. */
    int maxRetries = 5;
    /** Delay before a crash-aborted chunk is re-planned, so one
     * crash's burst of aborts settles before replacements launch. */
    SimTime backoff = 1.0;

    bool operator==(const RetryConfig &) const = default;
};

/** Base of the repair drivers; see file comment. */
class RepairDriver
{
  public:
    /** Terminal per-chunk outcome notification: fired once per
     * queued chunk, with repaired=true on success and false when the
     * chunk is (or stays) unrecoverable. */
    using OutcomeFn = std::function<void(
        const cluster::FailedChunk &, bool repaired)>;

    virtual ~RepairDriver() = default;
    RepairDriver(const RepairDriver &) = delete;
    RepairDriver &operator=(const RepairDriver &) = delete;

    /** Queues `chunks` (FIFO) and runs the admission policy. */
    void enqueue(const std::vector<cluster::FailedChunk> &chunks);

    /**
     * Absorbs a mid-repair node crash. Call after the stripe table
     * and cluster already marked the node dead: aborts the repairs
     * touching it (they re-plan after the retry backoff) and queues
     * `newly_lost`, the chunks the crash destroyed.
     */
    void onNodeCrash(NodeId node,
                     const std::vector<cluster::FailedChunk>
                         &newly_lost);

    /** Installs the outcome hook; call before work runs. */
    void setOutcomeHook(OutcomeFn fn) { outcomeHook_ = std::move(fn); }

    /** True once every queued chunk has its outcome. A later crash
     * can add work and make a finished driver active again. */
    bool finished() const { return outstanding_ == 0; }

    SimTime startTime() const { return startTime_; }
    SimTime finishTime() const { return finishTime_; }
    int chunksRepaired() const { return chunksRepaired_; }
    int chunksUnrecoverable() const
    {
        return static_cast<int>(unrecoverable_.size());
    }
    const std::vector<cluster::FailedChunk> &unrecoverable() const
    {
        return unrecoverable_;
    }
    /** Chunk losses queued so far (initial failures, crash losses,
     * detected corruptions), each counted once. */
    int totalChunks() const { return totalChunks_; }
    /** Chunk repairs aborted by crashes. */
    int crashReplans() const { return crashReplans_; }

    /** Repaired bytes per second over the whole feed. */
    Rate throughput() const;

  protected:
    /**
     * @param metric_prefix names the driver's counters:
     *        <prefix>.unrecoverable and <prefix>.crash_replans.
     */
    RepairDriver(cluster::StripeTable &stripes, RepairExecutor &executor,
                 RetryConfig retry, const std::string &metric_prefix);

    /** Admission policy: plans and launches queued work. Runs after
     * enqueue() queued chunks. */
    virtual void admit() = 0;
    /** Admission after a crash queued its losses or a crash-aborted
     * chunk came back from its backoff; admit() unless overridden. */
    virtual void resume() { admit(); }
    /** The driver just finished at `when` (see settle()). */
    virtual void onFinished(SimTime) {}

    /** Verdict of the admission gate every driver applies. */
    enum class Gate {
        kOpen,          ///< plannable now
        kBusy,          ///< concurrent repairs hold every destination
        kUnrecoverable, ///< short of helpers, or no destination ever
    };
    /**
     * Recoverability and destination gate: fewer surviving helpers
     * than the code needs means no plan can exist (permanent for MDS
     * stripes); a stripe whose candidate destinations are all held
     * by its own in-flight repairs must wait for one to finish; and
     * when no candidate exists even without reservations, no
     * completion can free one up.
     */
    Gate gate(const cluster::FailedChunk &fc) const;
    /** gate() for the windowed drivers: marks a kUnrecoverable chunk
     * unrecoverable, parks a kBusy one until a completion or crash
     * (requeueDeferred()), and returns true when it is kOpen. */
    bool passGate(const cluster::FailedChunk &fc);
    /** Moves parked chunks back into the queue (destinations or
     * helpers may have changed). */
    void requeueDeferred();
    int deferredCount() const
    {
        return static_cast<int>(deferred_.size());
    }

    /** Destinations reserved by in-flight repairs of `stripe`. */
    std::vector<NodeId> reservedDestinations(StripeId stripe) const;
    /** Candidate destinations of `stripe` no reservation holds, in
     * candidateDestinations() order. */
    std::vector<NodeId> freeDestinations(StripeId stripe) const;
    void reserve(StripeId stripe, NodeId destination);
    void releaseReservation(StripeId stripe, NodeId destination);

    /**
     * Books a successful repair of `plan`'s chunk: stripe metadata,
     * its reservation, the counts, then the outcome hook (which may
     * feed new work back in synchronously).
     */
    void completeRepair(const ChunkRepairPlan &plan);
    /** Books `fc` as unrecoverable and fires the outcome hook. */
    void markUnrecoverable(const cluster::FailedChunk &fc);

    /** Counts a crash abort of `fc` and spends one retry of its
     * budget; false once the budget is exhausted. */
    bool spendRetry(const cluster::FailedChunk &fc);
    /** A crash aborted the repair of `fc`: re-queue it after the
     * backoff (then resume()), or give up past the budget. */
    void retryLater(const cluster::FailedChunk &fc, SimTime when);

    /** Stamps the finish time if the driver is finished; true if
     * so. */
    bool settle(SimTime when);

    sim::Simulator &simulator() const;

    cluster::StripeTable &stripes_;
    RepairExecutor &executor_;
    RetryConfig retry_;
    /** Queued chunks awaiting admission. */
    std::deque<cluster::FailedChunk> pending_;
    /** Crash-abort counts per chunk, against retry_.maxRetries. */
    std::map<std::pair<StripeId, ChunkIndex>, int> retries_;
    /** Chunks whose retry backoff timer is pending. */
    int retriesInAir_ = 0;

  private:
    using Key = std::pair<StripeId, ChunkIndex>;

    OutcomeFn outcomeHook_;
    const std::string metUnrecoverable_;
    const std::string metCrashReplans_;
    /** Chunks the destination gate parked (kBusy). */
    std::deque<cluster::FailedChunk> deferred_;
    /** Destinations claimed by in-flight repairs, per stripe; a
     * stripe's entry disappears with its last reservation. */
    std::map<StripeId, std::set<NodeId>> reserved_;
    std::vector<cluster::FailedChunk> unrecoverable_;
    std::set<Key> unrecoverableKeys_;
    /** Queued chunks still waiting for their outcome. */
    int outstanding_ = 0;
    int totalChunks_ = 0;
    int chunksRepaired_ = 0;
    int crashReplans_ = 0;
    SimTime startTime_ = 0.0;
    SimTime finishTime_ = 0.0;
};

} // namespace repair
} // namespace chameleon

#endif // CHAMELEON_REPAIR_DRIVER_HH_
