#include "repair/strategies.hh"

#include <algorithm>

#include "util/logging.hh"

namespace chameleon {
namespace repair {

namespace {

std::vector<NodeId>
eligibleDestinations(const cluster::StripeTable &stripes,
                     StripeId stripe,
                     const std::vector<NodeId> &reserved)
{
    auto dests = stripes.candidateDestinations(stripe);
    dests.erase(std::remove_if(dests.begin(), dests.end(),
                               [&](NodeId d) {
                                   return std::find(reserved.begin(),
                                                    reserved.end(),
                                                    d) != reserved.end();
                               }),
                dests.end());
    CHAMELEON_ASSERT(!dests.empty(),
                     "no destination available for stripe ", stripe);
    return dests;
}

std::vector<PlanSource>
sourcesFromSpec(const cluster::StripeTable &stripes, StripeId stripe,
                const ec::RepairSpec &spec)
{
    std::vector<PlanSource> sources;
    for (const auto &read : spec.reads) {
        PlanSource src;
        src.node = stripes.location(stripe, read.helper);
        src.chunk = read.helper;
        src.coeff = read.coeff;
        src.fraction = read.fraction;
        sources.push_back(src);
    }
    return sources;
}

ChunkRepairPlan
assemble(StripeId stripe, ChunkIndex failed, NodeId destination,
         std::vector<PlanSource> sources, Topology topology,
         bool combinable)
{
    if (!combinable || topology == Topology::kStar) {
        return buildStarPlan(stripe, failed, destination,
                             std::move(sources), combinable);
    }
    if (topology == Topology::kTree) {
        return buildPprPlan(stripe, failed, destination,
                            std::move(sources));
    }
    return buildChainPlan(stripe, failed, destination,
                          std::move(sources));
}

} // namespace

std::string
topologyName(Topology topology)
{
    switch (topology) {
      case Topology::kStar:
        return "CR";
      case Topology::kTree:
        return "PPR";
      case Topology::kChain:
        return "ECPipe";
    }
    CHAMELEON_PANIC("unknown topology");
}

ChunkRepairPlan
makeBaselinePlan(const cluster::StripeTable &stripes,
                 const cluster::FailedChunk &failed, Topology topology,
                 const std::vector<NodeId> &reserved, Rng &rng)
{
    auto dests = eligibleDestinations(stripes, failed.stripe, reserved);
    NodeId dest = dests[rng.below(dests.size())];

    auto avail = stripes.availableChunks(failed.stripe);
    auto spec = stripes.code().makeRepairSpec(failed.chunk, avail, rng);
    auto sources = sourcesFromSpec(stripes, failed.stripe, spec);

    // Randomize tree/chain positions (the structures are fixed, the
    // node-to-position assignment is not).
    for (std::size_t i = 0; i + 1 < sources.size(); ++i) {
        auto j = i + rng.below(sources.size() - i);
        std::swap(sources[i], sources[j]);
    }
    return assemble(failed.stripe, failed.chunk, dest,
                    std::move(sources), topology, spec.combinable);
}

RepairBoostSelector::RepairBoostSelector(int num_nodes)
    : up_(static_cast<std::size_t>(num_nodes), 0.0),
      down_(static_cast<std::size_t>(num_nodes), 0.0)
{
}

Bytes
RepairBoostSelector::assignedUpload(NodeId node) const
{
    return up_[static_cast<std::size_t>(node)];
}

Bytes
RepairBoostSelector::assignedDownload(NodeId node) const
{
    return down_[static_cast<std::size_t>(node)];
}

ChunkRepairPlan
RepairBoostSelector::makePlan(const cluster::StripeTable &stripes,
                              const cluster::FailedChunk &failed,
                              Topology topology,
                              const std::vector<NodeId> &reserved,
                              Rng &rng)
{
    auto dests = eligibleDestinations(stripes, failed.stripe, reserved);
    // Least-loaded destination by assigned repair download traffic.
    NodeId dest = dests[0];
    for (NodeId d : dests) {
        if (down_[static_cast<std::size_t>(d)] <
            down_[static_cast<std::size_t>(dest)])
            dest = d;
    }

    auto avail = stripes.availableChunks(failed.stripe);
    auto pool = stripes.code().helperPool(failed.chunk, avail);

    std::vector<ChunkIndex> helpers;
    if (pool.fixedSet) {
        helpers = pool.candidates;
    } else {
        // Least-loaded helpers by assigned upload traffic.
        auto sorted = pool.candidates;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [&](ChunkIndex a, ChunkIndex b) {
                             NodeId na =
                                 stripes.location(failed.stripe, a);
                             NodeId nb =
                                 stripes.location(failed.stripe, b);
                             return up_[static_cast<std::size_t>(na)] <
                                    up_[static_cast<std::size_t>(nb)];
                         });
        sorted.resize(static_cast<std::size_t>(pool.required));
        helpers = std::move(sorted);
    }

    auto spec_opt = stripes.code().specFor(failed.chunk, helpers);
    ec::RepairSpec spec;
    if (spec_opt) {
        spec = *spec_opt;
    } else {
        // Balanced choice cannot repair this pattern (possible for
        // LRC degraded groups): fall back to the code's default.
        spec = stripes.code().makeRepairSpec(failed.chunk, avail, rng);
    }
    auto sources = sourcesFromSpec(stripes, failed.stripe, spec);

    // Load-ordered positions: lightest-uploaded nodes take the relay
    // slots later in the chain/tree (they carry the aggregated data).
    std::stable_sort(sources.begin(), sources.end(),
                     [&](const PlanSource &a, const PlanSource &b) {
                         return up_[static_cast<std::size_t>(a.node)] >
                                up_[static_cast<std::size_t>(b.node)];
                     });

    auto plan = assemble(failed.stripe, failed.chunk, dest,
                         std::move(sources), topology,
                         spec.combinable);

    // Account assigned traffic in chunk units (relative balance is
    // all that matters to the selector).
    for (const auto &src : plan.sources) {
        up_[static_cast<std::size_t>(src.node)] += src.fraction;
        NodeId tgt = src.parent == kToDestination
                         ? plan.destination
                         : plan.sources[static_cast<std::size_t>(
                                            src.parent)]
                               .node;
        down_[static_cast<std::size_t>(tgt)] += src.fraction;
    }
    return plan;
}

} // namespace repair
} // namespace chameleon
