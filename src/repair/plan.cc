#include "repair/plan.hh"

#include <algorithm>
#include <set>

#include "util/logging.hh"

namespace chameleon {
namespace repair {

double
ChunkRepairPlan::trafficChunks() const
{
    // Each source's upload carries one chunk's worth of data (a full
    // chunk or a same-sized partial decode) scaled by its fraction;
    // relays do not add traffic beyond their own upload.
    double total = 0.0;
    for (const auto &src : sources)
        total += src.fraction;
    return total;
}

std::vector<int>
ChunkRepairPlan::childrenOf(int idx) const
{
    std::vector<int> out;
    for (int i = 0; i < static_cast<int>(sources.size()); ++i)
        if (sources[static_cast<std::size_t>(i)].parent == idx)
            out.push_back(i);
    return out;
}

int
ChunkRepairPlan::depth() const
{
    int max_depth = 0;
    for (int i = 0; i < static_cast<int>(sources.size()); ++i) {
        int d = 1;
        int cur = sources[static_cast<std::size_t>(i)].parent;
        while (cur != kToDestination) {
            ++d;
            cur = sources[static_cast<std::size_t>(cur)].parent;
        }
        max_depth = std::max(max_depth, d);
    }
    return max_depth;
}

void
ChunkRepairPlan::validate() const
{
    CHAMELEON_ASSERT(destination != kInvalidNode, "plan lacks destination");
    CHAMELEON_ASSERT(!sources.empty(), "plan has no sources");
    std::set<NodeId> nodes;
    const int n = static_cast<int>(sources.size());
    for (int i = 0; i < n; ++i) {
        const auto &src = sources[static_cast<std::size_t>(i)];
        CHAMELEON_ASSERT(src.node != kInvalidNode, "source lacks node");
        CHAMELEON_ASSERT(src.node != destination,
                         "destination node also a source");
        CHAMELEON_ASSERT(nodes.insert(src.node).second,
                         "node ", src.node, " appears twice in plan");
        CHAMELEON_ASSERT(src.fraction > 0 && src.fraction <= 1.0,
                         "bad fraction ", src.fraction);
        CHAMELEON_ASSERT(src.parent == kToDestination ||
                         (src.parent >= 0 && src.parent < n &&
                          src.parent != i),
                         "bad parent index ", src.parent);
        if (!combinable) {
            CHAMELEON_ASSERT(src.parent == kToDestination,
                             "non-combinable plan must be a star");
        }
    }
    // Cycle check: walk each source to the root.
    for (int i = 0; i < n; ++i) {
        int cur = i;
        int steps = 0;
        while (sources[static_cast<std::size_t>(cur)].parent !=
               kToDestination) {
            cur = sources[static_cast<std::size_t>(cur)].parent;
            CHAMELEON_ASSERT(++steps <= n, "cycle in repair plan");
        }
    }
}

ChunkRepairPlan
buildStarPlan(StripeId stripe, ChunkIndex failed, NodeId destination,
              std::vector<PlanSource> sources, bool combinable)
{
    ChunkRepairPlan plan;
    plan.stripe = stripe;
    plan.failedChunk = failed;
    plan.destination = destination;
    plan.sources = std::move(sources);
    plan.combinable = combinable;
    for (auto &src : plan.sources)
        src.parent = kToDestination;
    plan.validate();
    return plan;
}

ChunkRepairPlan
buildPprPlan(StripeId stripe, ChunkIndex failed, NodeId destination,
             std::vector<PlanSource> sources)
{
    ChunkRepairPlan plan;
    plan.stripe = stripe;
    plan.failedChunk = failed;
    plan.destination = destination;
    plan.sources = std::move(sources);
    plan.combinable = true;

    // Binomial pairing rounds: in each round the remaining
    // aggregators pair (a, b) with a -> b; b stays active. The last
    // active source uploads to the destination (Figure 3(b)).
    std::vector<int> active;
    for (int i = 0; i < static_cast<int>(plan.sources.size()); ++i)
        active.push_back(i);
    while (active.size() > 1) {
        std::vector<int> next;
        for (std::size_t i = 0; i + 1 < active.size(); i += 2) {
            plan.sources[static_cast<std::size_t>(active[i])].parent =
                active[i + 1];
            next.push_back(active[i + 1]);
        }
        if (active.size() % 2 == 1)
            next.push_back(active.back());
        active = std::move(next);
    }
    plan.sources[static_cast<std::size_t>(active[0])].parent =
        kToDestination;
    plan.validate();
    return plan;
}

ChunkRepairPlan
buildChainPlan(StripeId stripe, ChunkIndex failed, NodeId destination,
               std::vector<PlanSource> sources)
{
    ChunkRepairPlan plan;
    plan.stripe = stripe;
    plan.failedChunk = failed;
    plan.destination = destination;
    plan.sources = std::move(sources);
    plan.combinable = true;
    const int n = static_cast<int>(plan.sources.size());
    for (int i = 0; i < n; ++i) {
        plan.sources[static_cast<std::size_t>(i)].parent =
            (i + 1 < n) ? i + 1 : kToDestination;
    }
    plan.validate();
    return plan;
}

namespace {

/**
 * In-place plan evaluation. A relay's upload is built in the buffer
 * of its first relay child's upload; a childless source's upload,
 * coeff * chunk, is folded straight from its chunk, as the lowered
 * DAG's direct leaf edges are (dag/dag.hh). Buffers of the other
 * relay children return to `spare_` once folded, so only the partials
 * alive at once are held.
 */
class PlanEvaluator
{
  public:
    PlanEvaluator(const ChunkRepairPlan &plan,
                  const std::vector<ec::Buffer> &stripe_data,
                  std::size_t size)
        : plan_(plan), data_(stripe_data), size_(size),
          children_(plan.sources.size() + 1)
    {
        // children_.back() lists the destination's children.
        for (std::size_t i = 0; i < plan.sources.size(); ++i) {
            const int p = plan.sources[i].parent;
            children_[p == kToDestination ? plan.sources.size()
                                          : static_cast<std::size_t>(p)]
                .push_back(static_cast<int>(i));
        }
    }

    /** The reconstructed chunk: the destination's fold. */
    ec::Buffer result()
    {
        return gather(children_.back(), nullptr, gf::kZero);
    }

  private:
    const gf::Elem *chunkOf(int i) const
    {
        return data_[static_cast<std::size_t>(
                         plan_.sources[static_cast<std::size_t>(i)].chunk)]
            .data();
    }

    /**
     * coeff * own (when own is set) plus the upload of every source
     * in kids — exactly what a relay computes (Equation (1)) — with
     * one fused call into the first relay child's upload. Without a
     * relay child, a spare buffer takes the first term by mulRegion.
     */
    ec::Buffer gather(const std::vector<int> &kids, const gf::Elem *own,
                      gf::Elem coeff)
    {
        std::vector<const gf::Elem *> srcs;
        std::vector<gf::Elem> coeffs;
        if (own) {
            srcs.push_back(own);
            coeffs.push_back(coeff);
        }
        ec::Buffer acc;
        bool have_acc = false;
        std::vector<ec::Buffer> rest;
        rest.reserve(kids.size());
        for (int k : kids) {
            const auto &grandkids = children_[static_cast<std::size_t>(k)];
            if (grandkids.empty()) {
                srcs.push_back(chunkOf(k));
                coeffs.push_back(
                    plan_.sources[static_cast<std::size_t>(k)].coeff);
                continue;
            }
            ec::Buffer up = gather(
                grandkids, chunkOf(k),
                plan_.sources[static_cast<std::size_t>(k)].coeff);
            if (!have_acc) {
                acc = std::move(up);
                have_acc = true;
                continue;
            }
            rest.push_back(std::move(up));
            srcs.push_back(rest.back().data());
            coeffs.push_back(gf::kOne);
        }
        std::size_t first = 0;
        if (!have_acc) {
            acc = take();
            gf::mulRegion(std::span<uint8_t>(acc),
                          std::span<const uint8_t>(srcs[0], size_),
                          coeffs[0]);
            first = 1;
        }
        gf::mulAddRegionMulti(
            std::span<uint8_t>(acc),
            std::span<const gf::Elem *const>(srcs).subspan(first),
            std::span<const gf::Elem>(coeffs).subspan(first));
        for (auto &b : rest)
            spare_.push_back(std::move(b));
        return acc;
    }

    ec::Buffer take()
    {
        if (spare_.empty())
            return ec::Buffer(size_);
        ec::Buffer b = std::move(spare_.back());
        spare_.pop_back();
        return b;
    }

    const ChunkRepairPlan &plan_;
    const std::vector<ec::Buffer> &data_;
    const std::size_t size_;
    std::vector<std::vector<int>> children_;
    std::vector<ec::Buffer> spare_;
};

} // namespace

ec::Buffer
evaluatePlan(const ChunkRepairPlan &plan,
             const std::vector<ec::Buffer> &stripe_data)
{
    CHAMELEON_ASSERT(plan.combinable,
                     "evaluatePlan handles combinable plans only");
    plan.validate();
    std::size_t size = 0;
    for (std::size_t i = 0; i < plan.sources.size(); ++i) {
        const ChunkIndex c = plan.sources[i].chunk;
        CHAMELEON_ASSERT(c >= 0 && static_cast<std::size_t>(c) <
                                       stripe_data.size(),
                         "source chunk ", c, " out of range");
        const std::size_t n =
            stripe_data[static_cast<std::size_t>(c)].size();
        if (i == 0)
            size = n;
        CHAMELEON_ASSERT(n == size, "chunk sizes differ: chunk ", c,
                         " has ", n, " bytes, expected ", size);
    }
    return PlanEvaluator(plan, stripe_data, size).result();
}

} // namespace repair
} // namespace chameleon
