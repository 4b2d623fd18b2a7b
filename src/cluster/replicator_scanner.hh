/**
 * @file
 * Epoch-scoped background replicator scanner.
 *
 * Production block managers (HDFS RedundancyMonitor, the warehouse
 * study in PAPERS.md with ~50 unavailability events/day) never scan
 * all metadata inside one failure event: a background thread sweeps
 * the stripe table continuously, classifies stripe health, and
 * feeds a prioritized repair queue. This class is that loop in sim
 * form: every tickInterval it scans up to batchSize stripes from a
 * wrapping cursor (one full pass = one *epoch*), materializes any
 * deferred node-wipe losses it encounters, classifies the stripe
 * (healthy / misplaced / degraded / data-loss-risk /
 * unrecoverable), pushes lost chunks into the RepairQueue at the
 * matching priority tier, and then pumps admissible work to the
 * repair layer via the dispatch callback.
 *
 * Discovery barrier: after a crash, every stripe must be scanned
 * once more before the scanner can vouch that all losses are
 * enqueued; discoveryComplete() gates experiment termination on
 * that. primeSync() runs one full epoch synchronously — used at
 * run start so initial-failure discovery happens at the same sim
 * time as the legacy direct path (the differential test relies on
 * this).
 */

#ifndef CHAMELEON_CLUSTER_REPLICATOR_SCANNER_HH_
#define CHAMELEON_CLUSTER_REPLICATOR_SCANNER_HH_

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/repair_queue.hh"
#include "cluster/stripe_table.hh"
#include "sim/simulator.hh"
#include "util/types.hh"

namespace chameleon {
namespace cluster {

struct ScannerConfig
{
    /** Route repair through scanner + queue instead of the direct
     * session path (runtime wiring switch). */
    bool enabled = false;
    /** Stripes scanned per tick. */
    int batchSize = 4096;
    /** Sim seconds between scan ticks. */
    SimTime tickInterval = 1.0;
    /** Survivor margin (survivors - k) below which a stripe is
     * classified data-loss-risk rather than merely degraded. */
    int riskMargin = 1;
    RepairQueueConfig queue;

    bool operator==(const ScannerConfig &o) const = default;
};

/** Background sweep + admission pump; see file comment. */
class ReplicatorScanner
{
  public:
    /** Batched repair handoff to the repair layer. One call per
     * admission pump so the receiving session/scheduler enqueues
     * (and plans) the batch atomically. */
    using DispatchFn =
        std::function<void(std::vector<FailedChunk>)>;
    using MisplacedFn = std::function<void(StripeId)>;

    ReplicatorScanner(StripeTable &stripes, RepairQueue &queue,
                      sim::Simulator &sim, ScannerConfig config);

    void setDispatch(DispatchFn fn) { dispatch_ = std::move(fn); }
    /** Handler for admitted misplaced-stripe entries; the default
     * clears the flag (placement accepted as-is). The queue entry
     * is completed by the scanner after the handler runs. */
    void setOnMisplaced(MisplacedFn fn)
    {
        onMisplaced_ = std::move(fn);
    }

    /** Starts the periodic tick loop. */
    void start();
    /** Stops ticking (a pending tick becomes a no-op). */
    void stop();

    /** Scans one full epoch synchronously, then pumps admission.
     * Satisfies the initial discovery barrier. */
    void primeSync();

    /** Notes a (possibly deferred) crash: raises the discovery
     * barrier to one more full sweep and re-opens queue tiers. */
    void noteCrash(NodeId node);
    /** Notes a rejoin; same barrier/invalidation treatment. */
    void noteRejoin(NodeId node);

    /** True once every loss present so far is guaranteed enqueued
     * (a full sweep has completed since the last crash/rejoin). */
    bool discoveryComplete() const
    {
        return scannedTotal_ >= barrier_;
    }

    /** Terminal outcome for a dispatched chunk: releases its queue
     * charges and pumps newly admissible work. */
    void onChunkOutcome(const FailedChunk &chunk, bool repaired);

    /** Drains the queue: admits everything admissible, handles
     * misplaced entries, and hands lost chunks to dispatch_ in one
     * batch. Re-entrant calls coalesce. */
    void pumpAdmission();

    int64_t epoch() const { return epoch_; }
    int64_t stripesScanned() const { return scannedTotal_; }

  private:
    void tick();
    void scanBatch(int limit);
    void scanStripe(StripeId stripe);
    void publishGauges();

    StripeTable &stripes_;
    RepairQueue &queue_;
    sim::Simulator &sim_;
    ScannerConfig config_;
    DispatchFn dispatch_;
    MisplacedFn onMisplaced_;

    StripeId cursor_ = 0;
    int64_t epoch_ = 0;
    int64_t scannedTotal_ = 0;
    int64_t barrier_ = 0;
    uint64_t sweepStartStamp_ = 0;
    bool running_ = false;
    bool pumping_ = false;
    bool repump_ = false;

    telemetry::Counter &metStripesScanned_;
    telemetry::Counter &metChunksEnqueued_;
};

} // namespace cluster
} // namespace chameleon

#endif // CHAMELEON_CLUSTER_REPLICATOR_SCANNER_HH_
