#include "dag/dag.hh"

#include <algorithm>
#include <set>

#include "util/logging.hh"

namespace chameleon {
namespace dag {

VertexId
EcDag::addLeaf(const DagSource &src)
{
    CHAMELEON_ASSERT(src.node != kInvalidNode, "leaf lacks node");
    CHAMELEON_ASSERT(src.fraction > 0 && src.fraction <= 1.0,
                     "bad fraction ", src.fraction);
    DagVertex v;
    v.node = src.node;
    v.source = static_cast<int>(sources_.size());
    sources_.push_back(src);
    vertices_.push_back(std::move(v));
    return static_cast<VertexId>(vertices_.size()) - 1;
}

VertexId
EcDag::addVertex(NodeId node)
{
    DagVertex v;
    v.node = node;
    vertices_.push_back(std::move(v));
    return static_cast<VertexId>(vertices_.size()) - 1;
}

void
EcDag::Join(VertexId target, const std::vector<VertexId> &sources,
            const std::vector<gf::Elem> &coeffs)
{
    CHAMELEON_ASSERT(target >= 0 && target < vertexCount(),
                     "Join target ", target, " out of range");
    CHAMELEON_ASSERT(sources.size() == coeffs.size(),
                     "Join arity mismatch: ", sources.size(),
                     " sources vs ", coeffs.size(), " coeffs");
    auto &tv = vertices_[static_cast<std::size_t>(target)];
    CHAMELEON_ASSERT(!tv.isLeaf(), "Join target ", target,
                     " is a leaf");
    for (VertexId s : sources) {
        CHAMELEON_ASSERT(s >= 0 && s < vertexCount(),
                         "Join source ", s, " out of range");
        CHAMELEON_ASSERT(s != target, "Join self-edge on ", target);
        tv.in.push_back(s);
    }
    tv.coeffs.insert(tv.coeffs.end(), coeffs.begin(), coeffs.end());
}

void
EcDag::BindX(const std::vector<VertexId> &vertices)
{
    CHAMELEON_ASSERT(!vertices.empty(), "BindX with no vertices");
    NodeId node = kInvalidNode;
    for (VertexId v : vertices) {
        CHAMELEON_ASSERT(v >= 0 && v < vertexCount(),
                         "BindX vertex ", v, " out of range");
        NodeId n = vertices_[static_cast<std::size_t>(v)].node;
        if (n != kInvalidNode) {
            node = n;
            break;
        }
    }
    CHAMELEON_ASSERT(node != kInvalidNode,
                     "BindX needs at least one bound vertex");
    for (VertexId v : vertices)
        vertices_[static_cast<std::size_t>(v)].node = node;
}

void
EcDag::bind(VertexId v, NodeId node)
{
    CHAMELEON_ASSERT(v >= 0 && v < vertexCount(),
                     "bind vertex ", v, " out of range");
    CHAMELEON_ASSERT(node != kInvalidNode, "bind to invalid node");
    vertices_[static_cast<std::size_t>(v)].node = node;
}

void
EcDag::setRoot(VertexId v)
{
    CHAMELEON_ASSERT(v >= 0 && v < vertexCount(),
                     "root ", v, " out of range");
    root_ = v;
}

const DagVertex &
EcDag::vertex(VertexId v) const
{
    CHAMELEON_ASSERT(v >= 0 && v < vertexCount(),
                     "vertex ", v, " out of range");
    return vertices_[static_cast<std::size_t>(v)];
}

NodeId
EcDag::destination() const
{
    CHAMELEON_ASSERT(root_ != kInvalidVertex, "DAG has no root");
    return vertices_[static_cast<std::size_t>(root_)].node;
}

std::vector<VertexId>
EcDag::topoOrder() const
{
    // Kahn's algorithm over in-edges; deterministic because ready
    // vertices are visited in ascending id order.
    const int n = vertexCount();
    std::vector<int> pending(static_cast<std::size_t>(n), 0);
    std::vector<std::vector<VertexId>> out(
        static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) {
        const auto &vert = vertices_[static_cast<std::size_t>(v)];
        pending[static_cast<std::size_t>(v)] =
            static_cast<int>(vert.in.size());
        for (VertexId s : vert.in)
            out[static_cast<std::size_t>(s)].push_back(v);
    }
    std::vector<VertexId> order;
    order.reserve(static_cast<std::size_t>(n));
    std::vector<VertexId> ready;
    for (VertexId v = 0; v < n; ++v)
        if (pending[static_cast<std::size_t>(v)] == 0)
            ready.push_back(v);
    std::size_t head = 0;
    while (head < ready.size()) {
        VertexId v = ready[head++];
        order.push_back(v);
        for (VertexId succ : out[static_cast<std::size_t>(v)])
            if (--pending[static_cast<std::size_t>(succ)] == 0)
                ready.push_back(succ);
    }
    CHAMELEON_ASSERT(static_cast<int>(order.size()) == n,
                     "cycle in DAG");
    return order;
}

int
EcDag::depth() const
{
    // Longest in-path per vertex along the topological order.
    auto order = topoOrder();
    std::vector<int> dist(static_cast<std::size_t>(vertexCount()), 0);
    int max_depth = 0;
    for (VertexId v : order) {
        const auto &vert = vertices_[static_cast<std::size_t>(v)];
        for (VertexId s : vert.in) {
            dist[static_cast<std::size_t>(v)] = std::max(
                dist[static_cast<std::size_t>(v)],
                dist[static_cast<std::size_t>(s)] + 1);
        }
        max_depth =
            std::max(max_depth, dist[static_cast<std::size_t>(v)]);
    }
    return max_depth;
}

void
EcDag::validate() const
{
    CHAMELEON_ASSERT(root_ != kInvalidVertex, "DAG has no root");
    const int n = vertexCount();
    std::set<int> leaves_seen;
    std::vector<int> consumers(static_cast<std::size_t>(n), 0);
    for (VertexId v = 0; v < n; ++v) {
        const auto &vert = vertices_[static_cast<std::size_t>(v)];
        CHAMELEON_ASSERT(vert.node != kInvalidNode,
                         "vertex ", v, " unbound");
        CHAMELEON_ASSERT(vert.in.size() == vert.coeffs.size(),
                         "vertex ", v, " coeff count mismatch");
        if (vert.isLeaf()) {
            CHAMELEON_ASSERT(vert.in.empty(),
                             "leaf ", v, " has in-edges");
            CHAMELEON_ASSERT(leaves_seen.insert(vert.source).second,
                             "source ", vert.source,
                             " used by two leaves");
        } else {
            CHAMELEON_ASSERT(!vert.in.empty(),
                             "internal vertex ", v, " has no inputs");
            CHAMELEON_ASSERT(combinable || v == root_,
                             "non-combinable DAG has internal vertex ",
                             v);
        }
        std::set<VertexId> dedup;
        for (VertexId s : vert.in) {
            CHAMELEON_ASSERT(s >= 0 && s < n,
                             "vertex ", v, " in-edge out of range");
            CHAMELEON_ASSERT(dedup.insert(s).second,
                             "vertex ", v, " duplicate in-edge from ",
                             s);
            // Every partial result reaches the root exactly once: the
            // DAG generalizes topology (bounded fan-in, co-located
            // hops, local reads), not contribution sharing.
            CHAMELEON_ASSERT(++consumers[static_cast<std::size_t>(s)] == 1,
                             "vertex ", s, " feeds more than one vertex");
        }
    }
    // topoOrder panics on cycles; reachability of the root covers the
    // rest: every vertex must feed the final result.
    auto order = topoOrder();
    std::vector<bool> reaches(static_cast<std::size_t>(n), false);
    reaches[static_cast<std::size_t>(root_)] = true;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        if (!reaches[static_cast<std::size_t>(*it)])
            continue;
        for (VertexId s :
             vertices_[static_cast<std::size_t>(*it)].in)
            reaches[static_cast<std::size_t>(s)] = true;
    }
    for (VertexId v = 0; v < n; ++v)
        CHAMELEON_ASSERT(reaches[static_cast<std::size_t>(v)],
                         "vertex ", v, " cannot reach the root");
}

ec::Buffer
evaluateDag(const EcDag &dag,
            const std::vector<ec::Buffer> &stripe_data)
{
    CHAMELEON_ASSERT(dag.combinable,
                     "evaluateDag handles combinable DAGs only");
    dag.validate();
    std::size_t size = 0;
    for (std::size_t i = 0; i < dag.sources().size(); ++i) {
        const ChunkIndex c = dag.sources()[i].chunk;
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

    // validate() gives every non-root vertex exactly one consumer, so
    // each internal value is read once: a vertex folds its other
    // terms, in one fused call, into the buffer of an internal input
    // whose edge coefficient is 1 (every combine vertex of a lowered
    // tree has one), or else into a spare buffer holding its first
    // term. Inputs' buffers are released to `spare` once folded.
    std::vector<ec::Buffer> value(
        static_cast<std::size_t>(dag.vertexCount()));
    std::vector<ec::Buffer> spare;
    for (VertexId v : dag.topoOrder()) {
        const auto &vert = dag.vertex(v);
        if (vert.isLeaf())
            continue;
        auto term = [&](std::size_t i) -> const gf::Elem * {
            const auto &sv = dag.vertex(vert.in[i]);
            if (!sv.isLeaf())
                return value[static_cast<std::size_t>(vert.in[i])].data();
            return stripe_data[static_cast<std::size_t>(
                dag.sources()[static_cast<std::size_t>(sv.source)].chunk)]
                .data();
        };
        std::size_t first = 0;
        while (first < vert.in.size() &&
               (dag.vertex(vert.in[first]).isLeaf() ||
                vert.coeffs[first] != gf::kOne))
            ++first;
        ec::Buffer acc;
        if (first < vert.in.size()) {
            acc = std::move(value[static_cast<std::size_t>(vert.in[first])]);
        } else {
            first = 0;
            if (spare.empty()) {
                acc = ec::Buffer(size);
            } else {
                acc = std::move(spare.back());
                spare.pop_back();
            }
            gf::mulRegion(std::span<uint8_t>(acc),
                          std::span<const uint8_t>(term(0), size),
                          vert.coeffs[0]);
        }
        std::vector<const gf::Elem *> srcs;
        std::vector<gf::Elem> coeffs;
        for (std::size_t i = 0; i < vert.in.size(); ++i) {
            if (i == first)
                continue;
            srcs.push_back(term(i));
            coeffs.push_back(vert.coeffs[i]);
        }
        gf::mulAddRegionMulti(std::span<uint8_t>(acc), srcs, coeffs);
        for (std::size_t i = 0; i < vert.in.size(); ++i) {
            auto &in = value[static_cast<std::size_t>(vert.in[i])];
            if (i != first && !in.empty())
                spare.push_back(std::move(in));
        }
        value[static_cast<std::size_t>(v)] = std::move(acc);
    }
    return std::move(value[static_cast<std::size_t>(dag.root())]);
}

EcDag
dagFromParents(StripeId stripe, ChunkIndex failed, NodeId destination,
               const std::vector<DagSource> &sources,
               const std::vector<int> &parents, bool combinable)
{
    CHAMELEON_ASSERT(destination != kInvalidNode,
                     "DAG lacks destination");
    CHAMELEON_ASSERT(!sources.empty(), "DAG has no sources");
    CHAMELEON_ASSERT(sources.size() == parents.size(),
                     "parents size mismatch");
    const int n = static_cast<int>(sources.size());

    EcDag dag;
    dag.stripe = stripe;
    dag.failedChunk = failed;
    dag.combinable = combinable;

    std::vector<std::vector<int>> children(
        static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        int p = parents[static_cast<std::size_t>(i)];
        CHAMELEON_ASSERT(p == -1 || (p >= 0 && p < n && p != i),
                         "bad parent index ", p);
        if (p >= 0)
            children[static_cast<std::size_t>(p)].push_back(i);
    }

    std::vector<VertexId> leaf(static_cast<std::size_t>(n));
    std::vector<VertexId> combine(static_cast<std::size_t>(n),
                                  kInvalidVertex);
    for (int i = 0; i < n; ++i)
        leaf[static_cast<std::size_t>(i)] =
            dag.addLeaf(sources[static_cast<std::size_t>(i)]);
    for (int i = 0; i < n; ++i) {
        if (children[static_cast<std::size_t>(i)].empty())
            continue;
        CHAMELEON_ASSERT(combinable,
                         "non-combinable plan must be a star");
        // A relay's partial decode: its own coefficient-scaled chunk
        // plus each child's contribution, co-located with its leaf.
        combine[static_cast<std::size_t>(i)] = dag.addVertex();
        dag.BindX({leaf[static_cast<std::size_t>(i)],
                   combine[static_cast<std::size_t>(i)]});
    }

    // A childless source feeds its parent directly — the transfer
    // stays an uncombined disk read, exactly like the star/tree
    // executor treats it — so its coefficient rides on the edge. A
    // combined source enters with kOne: its combine vertex already
    // applied the coefficient.
    auto feed = [&](VertexId target, int i) {
        if (combine[static_cast<std::size_t>(i)] != kInvalidVertex) {
            dag.Join(target, {combine[static_cast<std::size_t>(i)]},
                     {gf::kOne});
        } else {
            dag.Join(target, {leaf[static_cast<std::size_t>(i)]},
                     {sources[static_cast<std::size_t>(i)].coeff});
        }
    };

    for (int i = 0; i < n; ++i) {
        if (children[static_cast<std::size_t>(i)].empty())
            continue;
        dag.Join(combine[static_cast<std::size_t>(i)],
                 {leaf[static_cast<std::size_t>(i)]},
                 {sources[static_cast<std::size_t>(i)].coeff});
        for (int c : children[static_cast<std::size_t>(i)])
            feed(combine[static_cast<std::size_t>(i)], c);
    }

    VertexId root = dag.addVertex(destination);
    for (int i = 0; i < n; ++i)
        if (parents[static_cast<std::size_t>(i)] == -1)
            feed(root, i);
    dag.setRoot(root);
    dag.validate();
    return dag;
}

EcDag
buildStarDag(StripeId stripe, ChunkIndex failed, NodeId destination,
             const std::vector<DagSource> &sources, bool combinable)
{
    std::vector<int> parents(sources.size(), -1);
    return dagFromParents(stripe, failed, destination, sources,
                          parents, combinable);
}

EcDag
buildChainDag(StripeId stripe, ChunkIndex failed, NodeId destination,
              const std::vector<DagSource> &sources)
{
    const int n = static_cast<int>(sources.size());
    std::vector<int> parents(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        parents[static_cast<std::size_t>(i)] =
            (i + 1 < n) ? i + 1 : -1;
    return dagFromParents(stripe, failed, destination, sources,
                          parents);
}

EcDag
buildPprDag(StripeId stripe, ChunkIndex failed, NodeId destination,
            const std::vector<DagSource> &sources)
{
    // Binomial pairing rounds, mirroring buildPprPlan: in each round
    // the remaining aggregators pair (a, b) with a -> b; b stays
    // active; the last active source uploads to the destination.
    const int n = static_cast<int>(sources.size());
    std::vector<int> parents(static_cast<std::size_t>(n), -1);
    std::vector<int> active;
    for (int i = 0; i < n; ++i)
        active.push_back(i);
    while (active.size() > 1) {
        std::vector<int> next;
        for (std::size_t i = 0; i + 1 < active.size(); i += 2) {
            parents[static_cast<std::size_t>(active[i])] =
                active[i + 1];
            next.push_back(active[i + 1]);
        }
        if (active.size() % 2 == 1)
            next.push_back(active.back());
        active = std::move(next);
    }
    return dagFromParents(stripe, failed, destination, sources,
                          parents);
}

EcDag
buildMlfDag(StripeId stripe, ChunkIndex failed, NodeId destination,
            const std::vector<DagSource> &sources, int fan_in)
{
    CHAMELEON_ASSERT(fan_in >= 2, "MLF fan-in must be >= 2, got ",
                     fan_in);
    // Complete fan_in-ary heap over the source list: position 0 is
    // the final relay (-> destination), position j aggregates into
    // (j - 1) / fan_in, giving depth ~log_F(k).
    const int n = static_cast<int>(sources.size());
    std::vector<int> parents(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j)
        parents[static_cast<std::size_t>(j)] =
            (j == 0) ? -1 : (j - 1) / fan_in;
    return dagFromParents(stripe, failed, destination, sources,
                          parents);
}

std::optional<TopologySpec>
topologyFromKey(const std::string &key, std::string *error)
{
    TopologySpec spec;
    if (key == "auto") {
        spec.kind = RepairTopology::kAuto;
        return spec;
    }
    if (key == "star") {
        spec.kind = RepairTopology::kStar;
        return spec;
    }
    if (key == "chain") {
        spec.kind = RepairTopology::kChain;
        return spec;
    }
    if (key == "ppr") {
        spec.kind = RepairTopology::kPpr;
        return spec;
    }
    if (key.rfind("mlf:", 0) == 0) {
        const std::string arg = key.substr(4);
        std::size_t used = 0;
        int fan_in = 0;
        try {
            fan_in = std::stoi(arg, &used);
        } catch (...) {
            used = 0;
        }
        if (used != arg.size() || fan_in < 2) {
            if (error)
                *error = "bad MLF fan-in '" + arg +
                         "' (want an integer >= 2)";
            return std::nullopt;
        }
        spec.kind = RepairTopology::kMlf;
        spec.fanIn = fan_in;
        return spec;
    }
    if (error)
        *error = "unknown topology '" + key +
                 "' (want auto|star|chain|ppr|mlf:F)";
    return std::nullopt;
}

std::string
topologyKey(const TopologySpec &spec)
{
    switch (spec.kind) {
      case RepairTopology::kAuto:
        return "auto";
      case RepairTopology::kStar:
        return "star";
      case RepairTopology::kChain:
        return "chain";
      case RepairTopology::kPpr:
        return "ppr";
      case RepairTopology::kMlf:
        return "mlf:" + std::to_string(spec.fanIn);
    }
    CHAMELEON_PANIC("unreachable topology kind");
}

EcDag
buildTopologyDag(const TopologySpec &spec, StripeId stripe,
                 ChunkIndex failed, NodeId destination,
                 const std::vector<DagSource> &sources,
                 bool combinable)
{
    // Sub-chunk repairs cannot combine partial decodes in-path, so
    // every relay topology degenerates to direct transfers.
    if (!combinable)
        return buildStarDag(stripe, failed, destination, sources,
                            false);
    switch (spec.kind) {
      case RepairTopology::kAuto:
      case RepairTopology::kStar:
        return buildStarDag(stripe, failed, destination, sources);
      case RepairTopology::kChain:
        return buildChainDag(stripe, failed, destination, sources);
      case RepairTopology::kPpr:
        return buildPprDag(stripe, failed, destination, sources);
      case RepairTopology::kMlf:
        return buildMlfDag(stripe, failed, destination, sources,
                           spec.fanIn);
    }
    CHAMELEON_PANIC("unreachable topology kind");
}

} // namespace dag
} // namespace chameleon
