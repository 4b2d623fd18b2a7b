/**
 * @file
 * Baseline repair strategies: CR (star), PPR (binomial tree), ECPipe
 * (chain), each with the paper's random source/destination selection;
 * plus the RepairBoost-style load-balanced selection wrapper (Exp#6)
 * that balances cumulative repair traffic across nodes while keeping
 * the underlying algorithm's fixed transmission structure.
 */

#ifndef CHAMELEON_REPAIR_STRATEGIES_HH_
#define CHAMELEON_REPAIR_STRATEGIES_HH_

#include <string>
#include <vector>

#include "cluster/stripe_table.hh"
#include "repair/plan.hh"
#include "util/rng.hh"

namespace chameleon {
namespace repair {

/** Transmission structure of a baseline algorithm. */
enum class Topology {
    kStar,  ///< CR: all sources upload straight to the destination
    kTree,  ///< PPR: binomial aggregation tree
    kChain, ///< ECPipe: pipelined chain
};

/** Human-readable algorithm name ("CR", "PPR", "ECPipe"). */
std::string topologyName(Topology topology);

/**
 * Builds one chunk's plan with random destination and the code's
 * default (random, for RS) helper selection — the paper's baseline
 * configuration.
 *
 * @param reserved  nodes that concurrent repairs of the same stripe
 *                  already claimed as destinations (excluded).
 */
ChunkRepairPlan
makeBaselinePlan(const cluster::StripeTable &stripes,
                 const cluster::FailedChunk &failed, Topology topology,
                 const std::vector<NodeId> &reserved, Rng &rng);

/**
 * RepairBoost-style selection state: cumulative upload/download
 * repair bytes assigned per node. RB schedules multi-chunk repair to
 * balance repair traffic and saturate bandwidth; we reproduce its
 * selection policy (least-loaded destination, least-loaded helpers,
 * load-ordered tree positions) on top of each baseline topology.
 */
class RepairBoostSelector
{
  public:
    explicit RepairBoostSelector(int num_nodes);

    /**
     * Builds a load-balanced plan and accounts its traffic.
     * Falls back to random helpers when the balanced choice cannot
     * repair the chunk (non-MDS corner cases).
     */
    ChunkRepairPlan
    makePlan(const cluster::StripeTable &stripes,
             const cluster::FailedChunk &failed, Topology topology,
             const std::vector<NodeId> &reserved, Rng &rng);

    Bytes assignedUpload(NodeId node) const;
    Bytes assignedDownload(NodeId node) const;

  private:
    std::vector<Bytes> up_;
    std::vector<Bytes> down_;
};

} // namespace repair
} // namespace chameleon

#endif // CHAMELEON_REPAIR_STRATEGIES_HH_
