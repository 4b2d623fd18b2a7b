/**
 * @file
 * ECDAG-style repair-plan representation (after OpenEC's
 * ECDAG::Join/BindX): a directed acyclic graph whose vertices are
 * slice-level partial results and whose edges carry GF(2^8)
 * combination coefficients.
 *
 * Leaf vertices name stored helper chunks (node, chunk index, read
 * fraction); internal vertices are partial decodes materialized on a
 * node chosen by BindX/bind; the single root is the reconstructed
 * chunk at the repair destination. Join(target, sources, coeffs)
 * declares target = sum_i coeffs[i] * sources[i] over Equation (1)'s
 * linearity, so any in-tree ChunkRepairPlan lowers losslessly into
 * this form (repair/dag_bridge.hh) — and topologies a parent-array
 * tree cannot express (multi-level forwarding with bounded fan-in,
 * partial-parallel aggregation, shared partial results) become plain
 * Joins.
 *
 * The executor streams a chunk through the DAG as S configurable
 * slices: an edge ships slice s as soon as its tail vertex holds
 * slice s, so slice s crosses hop h+1 while slice s+1 crosses hop h
 * (repair pipelining). evaluateDag() is the byte-exact reference for
 * that execution: it folds real chunk data through the same fused
 * region kernels as evaluatePlan(), and on a lowered tree the two are
 * byte-identical.
 */

#ifndef CHAMELEON_DAG_DAG_HH_
#define CHAMELEON_DAG_DAG_HH_

#include <optional>
#include <string>
#include <vector>

#include "ec/buffer.hh"
#include "gf/gf256.hh"
#include "util/types.hh"

namespace chameleon {
namespace dag {

/** Identifier of a vertex within one EcDag (0-based, dense). */
using VertexId = int32_t;

inline constexpr VertexId kInvalidVertex = -1;

/** One stored helper chunk feeding a DAG. */
struct DagSource
{
    /** Node hosting the helper chunk. */
    NodeId node = kInvalidNode;
    /** Helper chunk index within the stripe. */
    ChunkIndex chunk = 0;
    /** Decoding coefficient alpha_i (combinable codes). */
    gf::Elem coeff = gf::kOne;
    /** Fraction of the chunk read (1.0, or 0.5 for Butterfly rows). */
    double fraction = 1.0;

    bool operator==(const DagSource &) const = default;
};

/** One vertex: a stored chunk (leaf) or a partial decode. */
struct DagVertex
{
    /** Node where this result materializes (kInvalidNode until
     * bound; validate() requires every vertex bound). */
    NodeId node = kInvalidNode;
    /** Leaf payload: index into EcDag::sources(), or -1. */
    int source = -1;
    /** In-edges declared by Join: value = sum coeffs[i]*in[i]. */
    std::vector<VertexId> in;
    std::vector<gf::Elem> coeffs;

    bool isLeaf() const { return source >= 0; }
};

/** Repair DAG; see file comment. */
class EcDag
{
  public:
    /** Identity of the chunk this DAG repairs (metadata only). */
    StripeId stripe = 0;
    ChunkIndex failedChunk = 0;

    /** Adds a leaf vertex for a stored helper chunk, bound to the
     * node hosting it. */
    VertexId addLeaf(const DagSource &src);

    /** Adds an internal vertex (optionally pre-bound to a node). */
    VertexId addVertex(NodeId node = kInvalidNode);

    /**
     * Declares target = sum_i coeffs[i] * sources[i] (OpenEC's
     * ECDAG::Join). Repeated Joins on one target append in-edges.
     * Leaves cannot be Join targets.
     */
    void Join(VertexId target, const std::vector<VertexId> &sources,
              const std::vector<gf::Elem> &coeffs);

    /**
     * Co-location binding (OpenEC's ECDAG::BindX): every listed
     * vertex computes on one node — the first bound vertex's node.
     * At least one listed vertex must already be bound. Edges between
     * co-located vertices execute without network flows.
     */
    void BindX(const std::vector<VertexId> &vertices);

    /** Binds one vertex to a node explicitly. */
    void bind(VertexId v, NodeId node);

    /** Declares the root (the reconstructed chunk); its node is the
     * repair destination. */
    void setRoot(VertexId v);

    /** False for sub-chunk codes: no internal combination vertices
     * are allowed, every leaf feeds the root directly. */
    bool combinable = true;

    int vertexCount() const
    {
        return static_cast<int>(vertices_.size());
    }
    const DagVertex &vertex(VertexId v) const;
    VertexId root() const { return root_; }
    NodeId destination() const;
    const std::vector<DagSource> &sources() const { return sources_; }

    /** Longest leaf-to-root edge count (star = 1). */
    int depth() const;

    /** Vertices in dependency order, leaves first. Panics on a
     * cycle. */
    std::vector<VertexId> topoOrder() const;

    /**
     * Panics if malformed: no root, unbound vertices, leaf Join
     * targets, out-of-range or duplicate in-edges, coefficient count
     * mismatches, cycles, vertices that cannot reach the root, a
     * vertex feeding more than one vertex (so every non-root vertex
     * has out-degree 1), internal vertices without in-edges, a leaf
     * source used twice, or internal vertices in a non-combinable
     * DAG.
     */
    void validate() const;

  private:
    std::vector<DagVertex> vertices_;
    std::vector<DagSource> sources_;
    VertexId root_ = kInvalidVertex;
};

/**
 * Byte-exact reference evaluation used by tests: folds real chunk
 * data through the DAG exactly as the executing nodes would, one
 * fused mulAddRegionMulti pass per vertex (combinable DAGs only —
 * mirroring evaluatePlan's contract). Evaluates in place: a vertex
 * folds into an input's buffer and freed buffers are reused, so
 * only the partial results alive at once are held.
 *
 * @param stripe_data  all n chunks of the stripe; every chunk a
 *                     source reads must have the same size.
 * @return the reconstructed chunk (the root's value).
 */
ec::Buffer evaluateDag(const EcDag &dag,
                       const std::vector<ec::Buffer> &stripe_data);

/**
 * Lowers a parent-array in-tree (the ChunkRepairPlan shape) into a
 * DAG: a source with children becomes leaf + combine vertex bound to
 * its node; a childless source's leaf feeds its parent directly with
 * its own coefficient, so star edges stay direct uncombined
 * transfers. `parents[i]` is a source index or -1 (the destination).
 * Non-combinable inputs must be stars and lower to direct leaf->root
 * edges.
 */
EcDag dagFromParents(StripeId stripe, ChunkIndex failed,
                     NodeId destination,
                     const std::vector<DagSource> &sources,
                     const std::vector<int> &parents,
                     bool combinable = true);

/** Star: every leaf feeds the root directly (CR). */
EcDag buildStarDag(StripeId stripe, ChunkIndex failed,
                   NodeId destination,
                   const std::vector<DagSource> &sources,
                   bool combinable = true);

/** ECPipe chain: s0 -> s1 -> ... -> s(k-1) -> destination. */
EcDag buildChainDag(StripeId stripe, ChunkIndex failed,
                    NodeId destination,
                    const std::vector<DagSource> &sources);

/** PPR binomial aggregation tree (pairing rounds). */
EcDag buildPprDag(StripeId stripe, ChunkIndex failed,
                  NodeId destination,
                  const std::vector<DagSource> &sources);

/**
 * Multi-level forwarding: a complete `fan_in`-ary aggregation tree
 * of depth ~log_F(k), the bounded-fan-in relay topology of the MLF
 * recovery algorithm (trades CR's destination hot spot against the
 * chain's long dependency path).
 */
EcDag buildMlfDag(StripeId stripe, ChunkIndex failed,
                  NodeId destination,
                  const std::vector<DagSource> &sources, int fan_in);

/** Plan-topology families selectable per experiment. */
enum class RepairTopology {
    kAuto,  ///< keep each algorithm's native tree execution
    kStar,  ///< CR star
    kChain, ///< ECPipe chain
    kPpr,   ///< PPR binomial tree
    kMlf,   ///< multi-level forwarding, fan-in F
};

/** A topology choice plus its parameter (MLF fan-in). */
struct TopologySpec
{
    RepairTopology kind = RepairTopology::kAuto;
    /** MLF fan-in (>= 2); ignored by the other kinds. */
    int fanIn = 2;

    bool operator==(const TopologySpec &) const = default;
};

/**
 * Parses a topology key: "auto" | "star" | "chain" | "ppr" |
 * "mlf:F" with F >= 2. nullopt + *error on malformed input.
 */
std::optional<TopologySpec>
topologyFromKey(const std::string &key, std::string *error = nullptr);

/** Inverse of topologyFromKey ("mlf:3"). */
std::string topologyKey(const TopologySpec &spec);

/** Builds `spec`'s topology over `sources`. Non-combinable inputs
 * and kAuto fall back to the star (direct transfers). */
EcDag buildTopologyDag(const TopologySpec &spec, StripeId stripe,
                       ChunkIndex failed, NodeId destination,
                       const std::vector<DagSource> &sources,
                       bool combinable = true);

} // namespace dag
} // namespace chameleon

#endif // CHAMELEON_DAG_DAG_HH_
