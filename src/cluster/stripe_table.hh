/**
 * @file
 * Stripe metadata: which chunk of which stripe lives on which node,
 * which nodes have failed, and the derived views repair scheduling
 * needs (surviving chunks, candidate destinations). This plays the
 * role of the HDFS NameNode metadata that the paper's coordinator
 * consults (Fig. 11, step 1).
 *
 * A per-stripe representation (one heap vector for placement and
 * another vector<bool> for lost flags) costs two allocations and
 * ~100 bytes of overhead per stripe, which caps the simulated
 * cluster at paper scale. StripeTable keeps the same state in
 * parallel arrays indexed by stripe id:
 *
 *   placement_  flat 16-bit node-id array, slot = stripe * n + chunk
 *               (so a table addresses at most kMaxNodes = 65,536
 *               nodes)
 *   lostBits_   one uint64_t lost-bitmask per stripe (n <= 64)
 *   gen_        per-stripe generation, bumped on any mutation
 *   state_      scanner-assigned health classification
 *   misplaced_  placement-policy violation flag (balancer input)
 *
 * Bit-rot masks (silent; promoted to lost on scrub/verify
 * detection) live in a side table, corrupt_, that holds only the
 * stripes with a corrupt chunk, so runs without bit rot pay nothing
 * for them.
 *
 * No per-stripe heap objects exist: 2*n + 14 bytes per stripe
 * before any node's chunks are asked for (42 at RS(10,4)). The
 * reverse index adds 4*n once it covers every node, 6*n + 14 in
 * all; the documented budget, vector growth slack included, is
 * <= 12*n + 32 (see memoryBytes()).
 *
 * Two scale-oriented extensions over a per-stripe representation:
 *
 * - A per-node reverse index (`stripe * n + chunk` slots packed in
 *   32 bits, so a table holds at most kMaxSlots = 2^32), built on
 *   demand, makes repeated failNode()/chunksOnNode() calls
 *   proportional to the node's chunk count instead of
 *   O(stripes * n). The first node asked for gets its list from
 *   one pass over the placement; a second one makes that pass fill
 *   every node's list. Only existing lists are appended to on
 *   create / relocate, so a table that is never asked (the scanner
 *   path) carries no index. Entries go stale when chunks relocate;
 *   reads compact them away.
 *
 * - Deferred failure discovery: failNodeDeferred() marks the node
 *   failed and "wipe pending" in O(1) without touching any stripe.
 *   Per-chunk lost state is *derived* (stored bit OR placement on a
 *   wipe-pending node), so readers stay correct immediately, and a
 *   background scanner materializes the stored bits incrementally
 *   (materializeWipe) before clearing the pending flags
 *   (clearPendingWipes). This is what lets a crash at 10^6 stripes
 *   enqueue work instead of scanning the world inside one event.
 */

#ifndef CHAMELEON_CLUSTER_STRIPE_TABLE_HH_
#define CHAMELEON_CLUSTER_STRIPE_TABLE_HH_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ec/code.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace chameleon {
namespace cluster {

/** A chunk lost to a node failure, pending repair. */
struct FailedChunk
{
    StripeId stripe = 0;
    ChunkIndex chunk = 0;

    bool operator==(const FailedChunk &o) const = default;
};

/** Scanner-assigned stripe health classification. */
enum class StripeHealth : uint8_t
{
    kHealthy = 0,
    /** All chunks live but placement violates policy. */
    kMisplaced = 1,
    /** Some chunks lost, comfortable survivor margin. */
    kDegraded = 2,
    /** Survivors within riskMargin of the decode minimum k. */
    kDataLossRisk = 3,
    /** Fewer than k survivors: cannot be decoded. */
    kUnrecoverable = 4,
};

/** SoA stripe metadata; see file comment. */
class StripeTable
{
  public:
    /** Placement stores node ids in 16 bits. */
    static constexpr int kMaxNodes = 1 << 16;
    /** Reverse-index entries pack `stripe * n + chunk` in 32 bits. */
    static constexpr uint64_t kMaxSlots = uint64_t{1} << 32;

    StripeTable(std::shared_ptr<const ec::ErasureCode> code,
                int num_nodes);

    const ec::ErasureCode &code() const { return *code_; }
    std::shared_ptr<const ec::ErasureCode> codePtr() const
    {
        return code_;
    }
    int numNodes() const { return numNodes_; }
    int stripeCount() const
    {
        return static_cast<int>(lostBits_.size());
    }

    /**
     * Creates `count` stripes with uniform random placement.
     * Consumes the RNG exactly as the legacy per-stripe
     * Fisher-Yates did (n draws of below(numNodes - i) per
     * stripe, here through FixedBounds built once per table), so
     * placements are bit-identical across the old and new
     * representations for the same seed.
     */
    void createStripes(int count, Rng &rng);

    NodeId location(StripeId stripe, ChunkIndex chunk) const;

    /** Re-homes a chunk; panics if `node` hosts another live chunk
     * of the stripe (one-chunk-per-node invariant). */
    void relocate(StripeId stripe, ChunkIndex chunk, NodeId node);

    /** True while the chunk's data is lost. Derived: stored lost
     * bit OR placement on a wipe-pending failed node. */
    bool chunkLost(StripeId stripe, ChunkIndex chunk) const;

    /** Stored lost bits only (no pending-wipe derivation). Valid as
     * a complete mask after materializeWipe(stripe). */
    uint64_t lostMask(StripeId stripe) const;

    void markLost(StripeId stripe, ChunkIndex chunk);
    void markRepaired(StripeId stripe, ChunkIndex chunk);

    /**
     * Flags a chunk's payload as silently corrupt (bit rot). The
     * chunk still *looks* live — corruption is invisible to the
     * planner and the generation counter until a scrub read or a
     * verify-on-read detects it and promotes it to lost
     * (markLost()). markRepaired() clears the flag (the rewritten
     * payload is fresh); relocate() deliberately does not — a
     * balancer copy of rotten bytes is still rotten.
     */
    void markCorrupt(StripeId stripe, ChunkIndex chunk);
    void clearCorrupt(StripeId stripe, ChunkIndex chunk);
    bool chunkCorrupt(StripeId stripe, ChunkIndex chunk) const;
    /** Per-stripe corrupt bitmask (ground truth, detection-agnostic). */
    uint64_t corruptMask(StripeId stripe) const;
    /** Chunks currently flagged corrupt across all stripes. */
    int corruptCount() const { return corruptCount_; }

    /**
     * Fails a node eagerly: every live chunk it hosts becomes lost.
     * @return the newly lost chunks in (stripe, chunk) order —
     *         byte-identical to the legacy full-scan output.
     */
    std::vector<FailedChunk> failNode(NodeId node);

    /**
     * Fails a node in O(1): marks it failed + wipe-pending without
     * visiting any stripe. chunkLost()/availableChunks() etc. see
     * the loss immediately via derivation; a scanner sweep calls
     * materializeWipe() per stripe and clearPendingWipes() once a
     * full sweep has completed with no newer deferred failure.
     */
    void failNodeDeferred(NodeId node);

    bool nodeFailed(NodeId node) const;
    int failedNodeCount() const { return failedCount_; }
    bool hasPendingWipe() const { return pendingWipeCount_ > 0; }

    /** Bumped by every failNodeDeferred(); lets a scanner detect
     * that a new deferred failure raced its sweep. */
    uint64_t wipeStamp() const { return wipeStamp_; }

    /** Folds pending-wipe losses for one stripe into stored bits. */
    void materializeWipe(StripeId stripe);

    /**
     * Drops all pending-wipe flags. Caller contract: every stripe
     * has been materialized since the last failNodeDeferred()
     * (i.e. a full sweep completed and wipeStamp() did not move).
     */
    void clearPendingWipes();

    /**
     * Clears a node's failed flag after a delayed rejoin. The node
     * returns *empty*: chunks it hosted stay lost until repaired
     * elsewhere. Any not-yet-materialized wipe losses for this node
     * are materialized here (via the reverse index) so clearing the
     * pending flag cannot resurrect them.
     */
    void rejoinNode(NodeId node);

    /** All chunks currently lost, in (stripe, chunk) order. */
    std::vector<FailedChunk> lostChunks() const;

    /** Chunk indices of `stripe` that are alive. */
    std::vector<ChunkIndex> availableChunks(StripeId stripe) const;

    /** Alive nodes hosting no live chunk of `stripe`, ascending.
     * Allocation-free internally (epoch-stamped scratch). */
    std::vector<NodeId> candidateDestinations(StripeId stripe) const;

    /** Chunks hosted by `node` (lost ones included), in
     * (stripe, chunk) order. Uses the reverse index, building it
     * on demand. */
    std::vector<FailedChunk> chunksOnNode(NodeId node) const;

    /** Per-stripe generation; bumped on any loss/placement edit. */
    uint32_t generation(StripeId stripe) const;

    StripeHealth state(StripeId stripe) const;
    void setState(StripeId stripe, StripeHealth h);

    /**
     * The scanner's sweep over healthy stripes: marks each stripe
     * of [first, last) kHealthy up to the first one with a stored
     * lost bit or a misplaced flag, and returns that stripe (last
     * if none). Requires no pending wipe, so stored bits are the
     * whole lost mask.
     */
    StripeId markHealthyRun(StripeId first, StripeId last);

    bool misplaced(StripeId stripe) const;
    void markMisplaced(StripeId stripe);
    void clearMisplaced(StripeId stripe);

    /** Bytes held by all metadata arrays (capacity-based), the
     * corruption side table's entries and buckets, and whatever of
     * the reverse index exists. Divide by stripeCount() for
     * bytes/stripe: 2*n + 14 with no index and no corruption,
     * budget <= 12*n + 32 with every node's list. */
    std::size_t memoryBytes() const;

  private:
    static constexpr uint8_t kNodeFailed = 1;
    static constexpr uint8_t kNodeWipePending = 2;

    void checkStripe(StripeId stripe) const;
    void checkNode(NodeId node) const;
    std::size_t slot(StripeId stripe, ChunkIndex chunk) const
    {
        return static_cast<std::size_t>(stripe) *
                   static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(chunk);
    }
    /** Lost mask including pending-wipe derivation. */
    uint64_t derivedMask(StripeId stripe) const;
    /** Builds node's list (see file comment) if it does not exist. */
    void buildIndex(NodeId node) const;
    /** Compacts + sorts node's index entries; returns the list. */
    const std::vector<uint32_t> &gatherNode(NodeId node) const;

    std::shared_ptr<const ec::ErasureCode> code_;
    int numNodes_;
    int n_; // code_->n(), cached (== chunks per stripe)

    // --- parallel per-stripe arrays (the SoA core) ---
    std::vector<uint16_t> placement_; // stripe * n + chunk
    std::vector<uint64_t> lostBits_;  // per stripe
    std::vector<uint32_t> gen_;       // per stripe
    std::vector<uint8_t> state_;      // StripeHealth per stripe
    std::vector<uint8_t> misplaced_;  // 0/1 per stripe

    /** Nonzero bit-rot masks by stripe; looked up only, never
     * iterated. Emptied entries are erased, and the buckets are
     * released when the last one goes. */
    std::unordered_map<StripeId, uint64_t> corrupt_;

    // --- per-node state ---
    std::vector<uint8_t> nodeFlags_;
    int failedCount_ = 0;
    int corruptCount_ = 0;
    int pendingWipeCount_ = 0;
    uint64_t wipeStamp_ = 0;
    /** Reverse index: packed slots per node. Only soleIndexed_'s
     * list, or every list once allIndexed_, exists; those are
     * appended on create / relocate; stale entries dropped on
     * gatherNode(). */
    mutable std::vector<std::vector<uint32_t>> nodeIndex_;
    mutable NodeId soleIndexed_ = kInvalidNode;
    mutable bool allIndexed_ = false;

    // --- allocation-free scratch ---
    std::vector<NodeId> fyPool_; // persistent identity pool for F-Y
    std::vector<FixedBound> draws_; // draw i: below(numNodes - i)
    mutable std::vector<uint32_t> hostStamp_; // per node
    mutable uint32_t stampEpoch_ = 0;
};

} // namespace cluster
} // namespace chameleon

#endif // CHAMELEON_CLUSTER_STRIPE_TABLE_HH_
