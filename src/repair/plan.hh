/**
 * @file
 * Repair-plan representation shared by every repair algorithm.
 *
 * A single-chunk repair plan is an in-tree over the k participating
 * sources rooted at the destination: each source uploads exactly once
 * (its chunk, or — if other sources upload to it first — a partially
 * decoded chunk combining its chunk with everything it received,
 * using the linearity of Equation (1)). Conventional repair is the
 * star (every source uploads straight to the destination), PPR is a
 * binomial tree, ECPipe is a chain, and ChameleonEC's Algorithm 1
 * produces arbitrary trees shaped by the available bandwidth.
 */

#ifndef CHAMELEON_REPAIR_PLAN_HH_
#define CHAMELEON_REPAIR_PLAN_HH_

#include <vector>

#include "ec/code.hh"
#include "gf/gf256.hh"
#include "util/types.hh"

namespace chameleon {
namespace repair {

/** Parent index meaning "uploads directly to the destination". */
inline constexpr int kToDestination = -1;

/** One participating source in a chunk's repair plan. */
struct PlanSource
{
    /** Node hosting the helper chunk. */
    NodeId node = kInvalidNode;
    /** Helper chunk index within the stripe. */
    ChunkIndex chunk = 0;
    /** Decoding coefficient alpha_i (combinable codes). */
    gf::Elem coeff = gf::kOne;
    /** Fraction of the chunk read (1.0, or 0.5 for Butterfly rows). */
    double fraction = 1.0;
    /** Upload target: index of another source, or kToDestination. */
    int parent = kToDestination;
};

/** A complete plan to repair one failed chunk; see file comment. */
struct ChunkRepairPlan
{
    StripeId stripe = 0;
    ChunkIndex failedChunk = 0;
    NodeId destination = kInvalidNode;
    std::vector<PlanSource> sources;
    /** False for sub-chunk codes: sources must upload directly. */
    bool combinable = true;

    /** Total repair traffic in chunk units (sum of fractions, plus
     * relayed partial chunks). */
    double trafficChunks() const;

    /** Indices of sources whose parent is `idx` (kToDestination for
     * the destination's children). */
    std::vector<int> childrenOf(int idx) const;

    /** Longest source-to-destination hop count (star = 1). */
    int depth() const;

    /**
     * Panics if malformed: parent indices out of range, cycles,
     * duplicate nodes, destination among the sources, or indirect
     * uploads in a non-combinable plan.
     */
    void validate() const;
};

/** Star plan: every source uploads straight to the destination. */
ChunkRepairPlan
buildStarPlan(StripeId stripe, ChunkIndex failed, NodeId destination,
              std::vector<PlanSource> sources, bool combinable);

/**
 * PPR-style binomial aggregation tree (Figure 3(b) of the paper):
 * sources pair up each round, the second of each pair aggregating,
 * until one source uploads to the destination. Repair latency is
 * O(log k) timeslots instead of CR's O(k).
 */
ChunkRepairPlan
buildPprPlan(StripeId stripe, ChunkIndex failed, NodeId destination,
             std::vector<PlanSource> sources);

/**
 * ECPipe-style chain: s0 -> s1 -> ... -> s(k-1) -> destination. The
 * plan only fixes the topology; repair time depends on the slicing
 * mode the executor runs it under (ExecutorConfig): split into S
 * slices that pipeline hop-by-hop, a chunk repairs in
 * (k + S - 1)/S chunk transfer times — O(k) at S = 1 (whole-chunk
 * store-and-forward), approaching one chunk time (O(1) amortized)
 * only as S grows. See dag/dag.hh for the slice-pipelined execution
 * model and bench/exp15_pipelining for the measured curve.
 */
ChunkRepairPlan
buildChainPlan(StripeId stripe, ChunkIndex failed, NodeId destination,
               std::vector<PlanSource> sources);

/**
 * Byte-exact reference evaluation of a plan used by tests: walks the
 * tree combining real chunk data exactly as relay nodes would. The
 * walk is post-order and in place: a leaf writes coeff * chunk into
 * a reused buffer, a relay folds its own scaled chunk and its other
 * children's uploads into its first child's buffer in one fused
 * call, and the destination folds into its first child's upload.
 *
 * @param plan         a combinable plan.
 * @param stripe_data  all n chunks of the stripe (failed one included
 *                     for comparison by the caller); every chunk a
 *                     source reads must have the same size.
 * @return the reconstructed chunk.
 */
ec::Buffer
evaluatePlan(const ChunkRepairPlan &plan,
             const std::vector<ec::Buffer> &stripe_data);

} // namespace repair
} // namespace chameleon

#endif // CHAMELEON_REPAIR_PLAN_HH_
