/**
 * @file
 * Background integrity scrub scanner.
 *
 * Bit rot (fault::FaultKind::kBitRot) is *silent*: a corrupt chunk
 * still looks live, so no failure event will ever surface it. The
 * ScrubScanner is the production answer — a bounded-rate background
 * sweep that reads every live chunk, verifies its checksum, and
 * promotes detected corruption to a real loss the repair layer then
 * handles through its normal tiers. It reuses the ReplicatorScanner
 * epoch/cursor machinery at *chunk* granularity: a wrapping
 * (stripe, chunk) cursor, one full pass = one scrub epoch.
 *
 * Scrub reads are real simulator flows (FlowTag::kScrub) on the
 * hosting disk, so scrub bandwidth genuinely contends with
 * foreground and repair traffic. A per-tick token bucket bounds the
 * read rate; in adaptive mode (Chameleon-style tunable dispatch)
 * each disk's read is charged inversely to its idle foreground
 * headroom, so scrubbing automatically backs off on busy disks and
 * spends its budget where interference is cheap — the same
 * "dispatch repair where bandwidth is idle" idea the paper applies
 * to repair traffic.
 *
 * Detection path (detect()): mark the chunk lost (silent -> real
 * loss), record the injection-to-detection latency histogram, and
 * hand the chunk to the runtime's dispatch callback, classified
 * into the existing repair tiers (a detected corruption combined
 * with erasures counts toward data-loss-risk exactly like one more
 * erasure — the survivor margin shrinks either way). The same entry
 * point serves the executor's verify-on-read/verify-after-decode
 * hooks, so scrub and in-line verification share one bookkeeping
 * and one set of integrity counters.
 */

#ifndef CHAMELEON_CLUSTER_SCRUB_SCANNER_HH_
#define CHAMELEON_CLUSTER_SCRUB_SCANNER_HH_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "cluster/cluster.hh"
#include "cluster/repair_queue.hh"
#include "cluster/stripe_table.hh"
#include "util/types.hh"

namespace chameleon {
namespace cluster {

/** Scrub + inline-verification knobs (the "scrub" JSON block). */
struct ScrubConfig
{
    /** Master switch: construct/start the scanner and (per the
     * verify flags) the executor integrity hooks. */
    bool enabled = false;
    /** Target scrub read bandwidth, bytes/second of chunk reads
     * (cluster-wide token bucket). */
    double rate = 64.0 * 1024.0 * 1024.0;
    /** Sim seconds between scrub ticks (bucket refills). */
    SimTime tickInterval = 1.0;
    /** Chameleon-style adaptivity: charge each disk's read against
     * the bucket inversely to its idle foreground headroom, so busy
     * disks are scrubbed slower (never below adaptiveFloor of the
     * nominal rate). */
    bool adaptive = false;
    double adaptiveFloor = 0.1;
    /** Max concurrent scrub-read flows. */
    int maxInFlight = 4;
    /** Survivor margin below which a detected corruption enqueues
     * at data-loss-risk priority (mirrors ScannerConfig). */
    int riskMargin = 1;
    /** Executor verify-on-read for helper chunks: a corrupt helper
     * aborts the repair and re-plans without it. */
    bool verifyReads = true;
    /** Executor verify-after-decode: reject a repaired chunk whose
     * reconstruction folded in a corrupt helper. */
    bool verifyDecode = true;

    bool operator==(const ScrubConfig &) const = default;
};

/** How a corruption was surfaced (metrics + dispatch labels). */
enum class DetectSource
{
    kScrubRead,
    kVerifyRead,
    kVerifyDecode,
};

/** Background scrub sweep; see file comment. */
class ScrubScanner
{
  public:
    /** Detected-corruption handoff: the runtime routes it into the
     * RepairQueue (scanner path) or straight into the session
     * (direct path) at the given tier. */
    using DetectFn = std::function<void(FailedChunk, RepairTier)>;

    ScrubScanner(Cluster &cluster, StripeTable &stripes,
                 Bytes chunk_bytes, ScrubConfig config);

    const ScrubConfig &config() const { return config_; }

    void setOnDetected(DetectFn fn) { onDetected_ = std::move(fn); }

    /** Starts the periodic tick loop. */
    void start();
    /** Stops ticking (a pending tick becomes a no-op). */
    void stop();

    /** Injection clock: the fault injector reports each bit-rot here
     * so detection latency can be measured. */
    void noteCorruption(FailedChunk chunk);

    /**
     * Surfaces a corruption (from a scrub read or an executor verify
     * hook): promotes the chunk to lost, records latency/counters,
     * and dispatches it for repair. No-op (returns false) unless the
     * chunk is currently corrupt and not already lost.
     */
    bool detect(FailedChunk chunk, DetectSource source);

    /** Terminal repair outcome for a chunk (chained behind the
     * repair layer's outcome hook): counts re-repaired corruptions. */
    void noteOutcome(const FailedChunk &chunk, bool repaired);

    /** True when no detected corruption still awaits repair and
     * every injected corruption has been surfaced (or its chunk was
     * claimed by a real loss first). The runtime's run loop keeps
     * the experiment alive until the scrub subsystem is quiescent,
     * which is what bounds detection latency to one scrub epoch. */
    bool quiescent() const;

    /** Full (stripe, chunk) passes completed. */
    int64_t epoch() const { return epoch_; }
    int64_t chunksScrubbed() const { return scrubbedTotal_; }
    int64_t corruptionsSeen() const { return seen_; }
    int64_t corruptionsDetected() const { return detected_; }
    int64_t corruptionsRepaired() const { return repaired_; }
    Bytes scrubBytes() const { return scrubBytes_; }
    /** Mean injection-to-detection latency over all detections that
     * had a recorded injection time (0 when none). */
    SimTime meanDetectionLatency() const
    {
        return latencyCount_ > 0 ? latencySum_ / latencyCount_ : 0.0;
    }
    SimTime maxDetectionLatency() const { return latencyMax_; }

  private:
    void tick();
    /** Issues scrub reads while budget/in-flight allow. */
    void pumpReads();
    void onReadDone(FailedChunk chunk, Bytes bytes);
    /** Budget cost of reading chunk_bytes from `node`'s disk
     * (>= chunk_bytes; grows as foreground eats the disk). */
    double readCost(NodeId node) const;
    void advanceCursor();
    void publishGauges();
    static uint64_t key(const FailedChunk &fc)
    {
        return (static_cast<uint64_t>(fc.stripe) << 8) |
               static_cast<uint64_t>(fc.chunk & 0xFF);
    }

    Cluster &cluster_;
    StripeTable &stripes_;
    Bytes chunkBytes_;
    ScrubConfig config_;
    DetectFn onDetected_;

    StripeId stripeCursor_ = 0;
    ChunkIndex chunkCursor_ = 0;
    int64_t epoch_ = 0;
    int64_t scrubbedTotal_ = 0;
    Bytes scrubBytes_ = 0.0;
    double budget_ = 0.0;
    int inFlight_ = 0;
    bool running_ = false;
    int64_t seen_ = 0;
    int64_t detected_ = 0;
    int64_t repaired_ = 0;
    SimTime latencySum_ = 0.0;
    SimTime latencyMax_ = 0.0;
    int64_t latencyCount_ = 0;
    /** Injection time per corrupt chunk (detection-latency clock). */
    std::unordered_map<uint64_t, SimTime> rotTimes_;
    /** Detected corruptions whose repair is still pending. */
    std::unordered_set<uint64_t> pendingRepair_;
};

} // namespace cluster
} // namespace chameleon

#endif // CHAMELEON_CLUSTER_SCRUB_SCANNER_HH_
