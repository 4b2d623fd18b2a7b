/**
 * @file
 * Prioritized, resource-limited repair admission queue.
 *
 * The background ReplicatorScanner classifies stripes and pushes
 * repair work here; the repair layer (ChameleonScheduler /
 * RepairSession) receives work only when it is *admissible* under
 * two limits modelled on production block managers:
 *
 *   - a cluster-wide in-flight job cap (maxTotalJobs), and
 *   - a per-node in-flight cap (maxNodeJobs) charged against the
 *     helper nodes a repair will read from.
 *
 * Priority tiers are strict: kDataLossRisk drains before kDegraded,
 * which drains before kMisplaced — pop() never returns a lower-tier
 * entry while any higher-tier entry is admissible (the property the
 * scale fuzz test pins). Within a tier, admission is FIFO except
 * that entries whose helper nodes are saturated are skipped until a
 * completion releases their charges.
 *
 * Entries deduplicate on (stripe, chunk): re-pushing a queued chunk
 * is a no-op unless the new tier is *higher* priority, in which
 * case the entry escalates (the stale lower-tier slot is dropped
 * lazily). Whole-stripe placement work (misplaced stripes) uses the
 * kBalancerChunk sentinel as its chunk index.
 */

#ifndef CHAMELEON_CLUSTER_REPAIR_QUEUE_HH_
#define CHAMELEON_CLUSTER_REPAIR_QUEUE_HH_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/stripe_table.hh"
#include "telemetry/metrics.hh"
#include "util/types.hh"

namespace chameleon {
namespace cluster {

/** Repair priority; lower value = more urgent. */
enum class RepairTier : uint8_t
{
    /** Stripe within riskMargin of losing data (or already past
     * the decode minimum — the session settles unrecoverability). */
    kDataLossRisk = 0,
    /** Lost chunks with a comfortable survivor margin. */
    kDegraded = 1,
    /** All chunks live but placement violates policy. */
    kMisplaced = 2,
};

inline constexpr int kRepairTiers = 3;

/** Chunk index sentinel for whole-stripe (misplaced) entries. */
inline constexpr ChunkIndex kBalancerChunk = -1;

struct RepairQueueConfig
{
    /** Cluster-wide cap on admitted-but-unfinished jobs. */
    int maxTotalJobs = 256;
    /** Per-node cap on jobs charged to a node's uplink. */
    int maxNodeJobs = 4;

    bool operator==(const RepairQueueConfig &o) const = default;
};

/** An admitted queue entry. */
struct AdmittedRepair
{
    FailedChunk chunk;
    RepairTier tier = RepairTier::kDegraded;
};

/** Priority-tiered admission queue; see file comment. */
class RepairQueue
{
  public:
    RepairQueue(StripeTable &stripes, RepairQueueConfig config);

    /**
     * Enqueues a repair (dedup on (stripe, chunk)). Re-pushing at a
     * strictly higher tier escalates a still-queued entry.
     * @return true if the queue state changed.
     */
    bool push(FailedChunk chunk, RepairTier tier);

    /**
     * Admits the most urgent admissible entry, charging its helper
     * nodes and the cluster-wide cap. Scans tiers strictly in
     * priority order; stale entries (chunk no longer lost / stripe
     * no longer misplaced) are dropped on the way.
     * @return nullopt when nothing is admissible.
     */
    std::optional<AdmittedRepair> pop();

    /** Releases an admitted entry's charges (terminal outcome). */
    void complete(const FailedChunk &chunk);

    /** Drops the tier-blocked and per-entry saturation memos (call
     * on crash/rejoin or any other availability change that does
     * not bump stripe generations). */
    void invalidate();

    /** Queued entries (stale entries counted until scanned out). */
    int depth() const;
    int depth(RepairTier tier) const
    {
        return depth_[static_cast<std::size_t>(tier)];
    }
    int inFlight() const { return inFlight_; }
    /** True when nothing is queued or in flight. */
    bool idle() const;
    int jobsOnNode(NodeId node) const;
    int64_t admitted() const { return admittedTotal_; }

    /**
     * True if a full scan of `tier` would admit something right
     * now. Test hook for the no-priority-inversion property; does
     * not mutate queue state.
     */
    bool admissibleInTier(RepairTier tier) const;

  private:
    enum class EntryState : uint8_t
    {
        kQueued,
        kInFlight,
    };
    struct Entry
    {
        EntryState state = EntryState::kQueued;
        RepairTier tier = RepairTier::kDegraded;
        /** Saturation memo: at stripe generation checkedGen,
         * admission was blocked by blockedOn sitting at its
         * node-job cap. While the generation is unchanged (same
         * helper set) and that node is still saturated, pop() skips
         * the entry in O(1) instead of recomputing its charges —
         * without this, every pop() on a node-saturated queue
         * re-derives the helper list (an allocation + code-pool
         * walk) for each queued entry it scans past. */
        uint32_t checkedGen = 0;
        NodeId blockedOn = kInvalidNode;
        /** memoEpoch_ value the memo was taken at; invalidate()
         * (crash/rejoin wipe-flag transitions, which change chunk
         * availability without per-stripe generation bumps)
         * advances the epoch and voids every memo. */
        uint64_t checkedEpoch = 0;
    };
    using Key = std::pair<StripeId, ChunkIndex>;

    /** Helper nodes a repair of `chunk` would charge. Empty when
     * the stripe lacks survivors (still admissible — the session
     * is the authority on unrecoverability). */
    std::vector<NodeId> charges(const FailedChunk &chunk) const;
    bool nodesFree(const std::vector<NodeId> &nodes) const;
    bool stale(const FailedChunk &chunk) const;

    StripeTable &stripes_;
    RepairQueueConfig config_;
    std::deque<FailedChunk> tiers_[kRepairTiers];
    int depth_[kRepairTiers] = {0, 0, 0};
    /** Dedup + lifecycle state per (stripe, chunk). */
    std::map<Key, Entry> entries_;
    /** Charges held by each in-flight entry. */
    std::map<Key, std::vector<NodeId>> heldCharges_;
    std::vector<int> nodeJobs_;
    int inFlight_ = 0;
    int64_t admittedTotal_ = 0;
    /** Memo: a full scan of tier t found nothing admissible; valid
     * until invalidate()/push()/complete(). */
    mutable bool tierBlocked_[kRepairTiers] = {false, false, false};
    /** Per-entry saturation-memo epoch; see Entry::checkedEpoch.
     * Starts above Entry's default so a fresh memo is never valid
     * by accident. */
    uint64_t memoEpoch_ = 1;

    telemetry::Counter &metScanSteps_;
    telemetry::Counter &metMemoSkips_;
    telemetry::Counter &metAdmitted_;
};

} // namespace cluster
} // namespace chameleon

#endif // CHAMELEON_CLUSTER_REPAIR_QUEUE_HH_
