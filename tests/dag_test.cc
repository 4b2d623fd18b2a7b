/**
 * @file
 * Tests for the EcDag repair-plan subsystem: structural properties of
 * the topology builders, byte-exact equivalence of evaluateDag with
 * evaluatePlan on lowered trees (the correctness anchor of the DAG
 * execution path), the slice-pipelining property of chain execution
 * (repair time approaches one slice per hop as S grows), and
 * mid-repair churn over DAG-executed sessions (aborts re-plan without
 * leaking flows).
 */

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/stripe_table.hh"
#include "dag/dag.hh"
#include "ec/factory.hh"
#include "repair/chameleon_planner.hh"
#include "repair/dag_bridge.hh"
#include "repair/executor.hh"
#include "repair/plan.hh"
#include "repair/session.hh"
#include "repair/strategies.hh"
#include "util/rng.hh"

namespace chameleon {
namespace {

ec::Buffer
randomChunk(Rng &rng, std::size_t size)
{
    ec::Buffer b(size);
    for (auto &v : b)
        v = static_cast<uint8_t>(rng.below(256));
    return b;
}

std::vector<ec::Buffer>
randomStripe(Rng &rng, const ec::ErasureCode &code, std::size_t size)
{
    std::vector<ec::Buffer> data;
    for (int i = 0; i < code.k(); ++i)
        data.push_back(randomChunk(rng, size));
    auto parity = code.encode(data);
    std::vector<ec::Buffer> chunks = data;
    for (auto &p : parity)
        chunks.push_back(std::move(p));
    return chunks;
}

std::vector<repair::PlanSource>
sourcesFor(const cluster::StripeTable &stripes,
           const ec::RepairSpec &spec, StripeId stripe)
{
    std::vector<repair::PlanSource> out;
    for (const auto &read : spec.reads) {
        repair::PlanSource src;
        src.node = stripes.location(stripe, read.helper);
        src.chunk = read.helper;
        src.coeff = read.coeff;
        src.fraction = read.fraction;
        out.push_back(src);
    }
    return out;
}

// ------------------------------------------------------- structure

TEST(DagStructure, TopologyShapes)
{
    std::vector<dag::DagSource> sources;
    for (int i = 0; i < 6; ++i)
        sources.push_back({static_cast<NodeId>(i + 1),
                           static_cast<ChunkIndex>(i + 1)});
    NodeId dest = 9;

    auto star = dag::buildStarDag(0, 0, dest, sources);
    EXPECT_EQ(star.depth(), 1);
    EXPECT_EQ(star.destination(), dest);
    // Star: leaves + root only.
    EXPECT_EQ(star.vertexCount(), 7);

    auto chain = dag::buildChainDag(0, 0, dest, sources);
    // Chain: every source combines, so depth = k hops.
    EXPECT_EQ(chain.depth(), 6);

    auto ppr = dag::buildPprDag(0, 0, dest, sources);
    // PPR over k=6: 3 pairing rounds + final hop.
    EXPECT_EQ(ppr.depth(), 4);

    auto mlf = dag::buildMlfDag(0, 0, dest, sources, 3);
    // Complete 3-ary tree over 6 sources: depth 3
    // (leaf -> combine, combine -> combine, combine -> root).
    EXPECT_EQ(mlf.depth(), 3);
    // Bounded fan-in: no vertex aggregates more than fan_in
    // children plus its own leaf.
    for (dag::VertexId v = 0; v < mlf.vertexCount(); ++v)
        EXPECT_LE(mlf.vertex(v).in.size(), 4u);
}

TEST(DagStructure, ValidateRejectsCycle)
{
    dag::EcDag d;
    auto a = d.addVertex(1);
    auto b = d.addVertex(2);
    d.Join(a, {b}, {gf::kOne});
    d.Join(b, {a}, {gf::kOne});
    d.setRoot(a);
    EXPECT_DEATH(d.validate(), "cycle");
}

TEST(DagStructure, ValidateRejectsSharedPartial)
{
    // A partial feeding two vertices would reach the root twice.
    dag::EcDag d;
    auto leaf = d.addLeaf({3, 1});
    auto shared = d.addVertex(3);
    auto relay = d.addVertex(4);
    auto root = d.addVertex(7);
    d.Join(shared, {leaf}, {gf::kOne});
    d.Join(relay, {shared}, {gf::kOne});
    d.Join(root, {shared, relay}, {gf::kOne, gf::kOne});
    d.setRoot(root);
    EXPECT_DEATH(d.validate(), "feeds more than one vertex");
}

TEST(DagStructure, BindXCoLocates)
{
    dag::EcDag d;
    auto leaf = d.addLeaf({3, 1});
    auto combine = d.addVertex();
    auto root = d.addVertex(7);
    d.Join(combine, {leaf}, {gf::kOne});
    d.Join(root, {combine}, {gf::kOne});
    d.BindX({leaf, combine});
    d.setRoot(root);
    d.validate();
    EXPECT_EQ(d.vertex(combine).node, 3);
}

TEST(DagStructure, TopologyKeyRoundTrips)
{
    for (const char *key : {"auto", "star", "chain", "ppr", "mlf:3"}) {
        auto spec = dag::topologyFromKey(key);
        ASSERT_TRUE(spec.has_value()) << key;
        EXPECT_EQ(dag::topologyKey(*spec), key);
    }
    std::string err;
    EXPECT_FALSE(dag::topologyFromKey("mlf:1", &err));
    EXPECT_FALSE(dag::topologyFromKey("mlf:x", &err));
    EXPECT_FALSE(dag::topologyFromKey("ring", &err));
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------- equivalence

/**
 * The correctness anchor: for every tree the planners emit, lowering
 * through fromTree and evaluating through evaluateDag must be
 * byte-identical to evaluatePlan — and both must reconstruct the
 * failed chunk.
 */
TEST(DagEquivalence, LoweredTreesMatchEvaluatePlanRs)
{
    auto code = ec::makeRs(6, 3);
    cluster::StripeTable stripes(code, 12);
    Rng rng(7);
    stripes.createStripes(1, rng);
    auto chunks = randomStripe(rng, *code, 128);

    for (ChunkIndex failed = 0; failed < code->n(); ++failed) {
        std::vector<ChunkIndex> avail;
        for (ChunkIndex c = 0; c < code->n(); ++c)
            if (c != failed)
                avail.push_back(c);
        auto spec = code->makeRepairSpec(failed, avail, rng);
        auto dest = stripes.candidateDestinations(0).front();
        auto sources = sourcesFor(stripes, spec, 0);

        auto star = buildStarPlan(0, failed, dest, sources, true);
        auto tree = buildPprPlan(0, failed, dest, sources);
        auto chain = buildChainPlan(0, failed, dest, sources);
        const auto want =
            chunks[static_cast<std::size_t>(failed)];
        for (const auto *plan : {&star, &tree, &chain}) {
            auto lowered = repair::fromTree(*plan);
            lowered.validate();
            EXPECT_EQ(dag::evaluateDag(lowered, chunks),
                      repair::evaluatePlan(*plan, chunks));
            EXPECT_EQ(dag::evaluateDag(lowered, chunks), want);
        }

        // The native DAG builders agree with the lowered trees.
        auto dag_sources = repair::toDagSources(sources);
        for (const auto &topo : {dag::TopologySpec{
                                     dag::RepairTopology::kStar},
                                 {dag::RepairTopology::kChain},
                                 {dag::RepairTopology::kPpr},
                                 {dag::RepairTopology::kMlf, 2},
                                 {dag::RepairTopology::kMlf, 3}}) {
            auto d = dag::buildTopologyDag(topo, 0, failed, dest,
                                           dag_sources, true);
            d.validate();
            EXPECT_EQ(dag::evaluateDag(d, chunks), want)
                << dag::topologyKey(topo);
        }
    }
}

TEST(DagEquivalence, LoweredTreeMatchesEvaluatePlanLrc)
{
    auto code = ec::makeLrc(8, 2, 2);
    cluster::StripeTable stripes(code, 14);
    Rng rng(9);
    stripes.createStripes(1, rng);
    auto chunks = randomStripe(rng, *code, 64);

    auto avail = stripes.availableChunks(0);
    avail.erase(std::remove(avail.begin(), avail.end(), 3),
                avail.end());
    auto spec = code->makeRepairSpec(3, avail, rng);
    auto dest = stripes.candidateDestinations(0).front();
    auto plan =
        buildPprPlan(0, 3, dest, sourcesFor(stripes, spec, 0));
    auto lowered = repair::fromTree(plan);
    EXPECT_EQ(dag::evaluateDag(lowered, chunks),
              repair::evaluatePlan(plan, chunks));
    EXPECT_EQ(dag::evaluateDag(lowered, chunks), chunks[3]);
}

/**
 * Hand-built DAGs beyond lowered trees: internal in-edges whose
 * coefficients are not 1 (a vertex then starts from a spare buffer
 * holding its first term), and an internal input with coefficient 1
 * behind a leaf and a scaled internal input (the vertex takes over
 * that input's buffer). Both equal repairCompute and the original.
 */
TEST(DagEquivalence, NonUnitInternalCoefficients)
{
    auto code = ec::makeRs(6, 3);
    Rng rng(31);
    auto chunks = randomStripe(rng, *code, 1031);
    std::vector<ChunkIndex> avail = {0, 1, 3, 4, 5, 6, 7, 8};
    auto spec = code->makeRepairSpec(2, avail, rng);
    ASSERT_EQ(spec.reads.size(), 6u);
    std::vector<ec::Buffer> helper_data;
    for (const auto &read : spec.reads)
        helper_data.push_back(
            chunks[static_cast<std::size_t>(read.helper)]);
    const ec::Buffer direct = code->repairCompute(spec, helper_data);
    ASSERT_EQ(direct, chunks[2]);

    auto c = [&](std::size_t i) { return spec.reads[i].coeff; };
    auto scaled = [&](std::size_t i, gf::Elem by) {
        return gf::div(c(i), by);
    };
    const gf::Elem x = 0x53, y = 0x8E, z = 0x07;
    auto leaves = [&](dag::EcDag &d) {
        std::vector<dag::VertexId> out;
        for (std::size_t i = 0; i < spec.reads.size(); ++i) {
            dag::DagSource src;
            src.node = static_cast<NodeId>(i + 1);
            src.chunk = spec.reads[i].helper;
            src.coeff = c(i);
            out.push_back(d.addLeaf(src));
        }
        return out;
    };

    // root = y*B + z*C, B = (x/y)*A + (c3/y)*L3, A = sum (ci/x)*Li,
    // C = (c4/z)*L4 + (c5/z)*L5: every internal edge is scaled.
    dag::EcDag scaled_dag;
    {
        auto &d = scaled_dag;
        auto l = leaves(d);
        auto a = d.addVertex(1), b = d.addVertex(4), cv = d.addVertex(5);
        auto root = d.addVertex(100);
        d.Join(a, {l[0], l[1], l[2]},
               {scaled(0, x), scaled(1, x), scaled(2, x)});
        d.Join(b, {a, l[3]}, {gf::div(x, y), scaled(3, y)});
        d.Join(cv, {l[4], l[5]}, {scaled(4, z), scaled(5, z)});
        d.Join(root, {b, cv}, {y, z});
        d.setRoot(root);
    }
    // root = c5*L5 + y*C + 1*A: takes over A's buffer (third edge).
    dag::EcDag takeover_dag;
    {
        auto &d = takeover_dag;
        auto l = leaves(d);
        auto a = d.addVertex(1), cv = d.addVertex(4);
        auto root = d.addVertex(100);
        d.Join(a, {l[0], l[1], l[2]}, {c(0), c(1), c(2)});
        d.Join(cv, {l[3], l[4]}, {scaled(3, y), scaled(4, y)});
        d.Join(root, {l[5], cv, a}, {c(5), y, gf::kOne});
        d.setRoot(root);
    }
    for (const auto *d : {&scaled_dag, &takeover_dag}) {
        d->validate();
        EXPECT_EQ(dag::evaluateDag(*d, chunks), direct);
    }
}

TEST(DagEquivalence, EvaluateRejectsMixedChunkSizes)
{
    auto code = ec::makeRs(4, 2);
    Rng rng(32);
    auto chunks = randomStripe(rng, *code, 64);
    std::vector<dag::DagSource> sources;
    for (ChunkIndex h = 1; h <= 4; ++h)
        sources.push_back({static_cast<NodeId>(h), h});
    auto d = dag::buildChainDag(0, 0, 9, sources);
    chunks[3].resize(32);
    EXPECT_DEATH(dag::evaluateDag(d, chunks), "chunk sizes differ");
}

TEST(DagEquivalence, ChameleonDispatcherTreeLowersExactly)
{
    // A Chameleon Algorithm-1 tree (relays induced by a scarce
    // destination downlink), with coefficients filled the way the
    // scheduler fills them (specFor over the chosen helper set).
    auto code = ec::makeRs(6, 3);
    Rng rng(31);
    auto chunks = randomStripe(rng, *code, 96);

    auto state = repair::PlannerState::make(20, 96.0);
    std::fill(state.bandUp.begin(), state.bandUp.end(), 100.0);
    std::fill(state.bandDown.begin(), state.bandDown.end(), 100.0);
    for (std::size_t i = 14; i < 20; ++i)
        state.bandDown[i] = 10.0;

    repair::PlannerChunkInput input;
    input.stripe = 0;
    input.failed = 0;
    input.required = code->k();
    input.combinable = true;
    for (int i = 1; i < code->n(); ++i) {
        input.helperChunks.push_back(i);
        input.helperNodes.push_back(i);
        input.fractions.push_back(1.0);
    }
    for (int i = code->n(); i < 20; ++i)
        input.destCandidates.push_back(i);

    auto planned = repair::planChunk(state, input);
    ASSERT_TRUE(planned.has_value());
    auto plan = planned->plan;
    int relays = 0;
    for (int i = 0; i < static_cast<int>(plan.sources.size()); ++i)
        relays += !plan.childrenOf(i).empty();
    EXPECT_GT(relays, 0) << "dispatcher built no relays; the test "
                            "lost its interesting shape";

    std::vector<ChunkIndex> helpers;
    for (const auto &src : plan.sources)
        helpers.push_back(src.chunk);
    auto spec = code->specFor(0, helpers);
    ASSERT_TRUE(spec.has_value());
    for (auto &src : plan.sources) {
        src.coeff = gf::kZero;
        for (const auto &read : spec->reads)
            if (read.helper == src.chunk)
                src.coeff = read.coeff;
    }

    auto lowered = repair::fromTree(plan);
    lowered.validate();
    EXPECT_EQ(dag::evaluateDag(lowered, chunks),
              repair::evaluatePlan(plan, chunks));
    EXPECT_EQ(dag::evaluateDag(lowered, chunks), chunks[0]);
}

TEST(DagEquivalence, ButterflyLowersToDirectStar)
{
    // Sub-chunk codes are non-combinable: the lowered DAG must have
    // no internal combine vertices — every leaf feeds the root
    // directly, fractions preserved.
    auto code = ec::makeButterfly();
    cluster::StripeTable stripes(code, 8);
    Rng rng(13);
    stripes.createStripes(1, rng);

    auto avail = stripes.availableChunks(0);
    avail.erase(std::remove(avail.begin(), avail.end(), 1),
                avail.end());
    auto spec = code->makeRepairSpec(1, avail, rng);
    ASSERT_FALSE(spec.combinable);
    auto dest = stripes.candidateDestinations(0).front();
    auto plan = buildStarPlan(0, 1, dest, sourcesFor(stripes, spec, 0),
                              spec.combinable);

    auto lowered = repair::fromTree(plan);
    lowered.validate();
    EXPECT_FALSE(lowered.combinable);
    EXPECT_EQ(lowered.depth(), 1);
    // Leaves + root, nothing else; every in-edge of the root is a
    // leaf carrying its read fraction.
    EXPECT_EQ(lowered.vertexCount(),
              static_cast<int>(plan.sources.size()) + 1);
    const auto &root = lowered.vertex(lowered.root());
    ASSERT_EQ(root.in.size(), plan.sources.size());
    for (std::size_t i = 0; i < root.in.size(); ++i) {
        const auto &leaf = lowered.vertex(root.in[i]);
        ASSERT_TRUE(leaf.isLeaf());
        EXPECT_DOUBLE_EQ(
            lowered.sources()[static_cast<std::size_t>(leaf.source)]
                .fraction,
            plan.sources[i].fraction);
    }
}

// ----------------------------------------------------- pipelining

/** Hand-built chain plan over explicit nodes (no stripe metadata). */
repair::ChunkRepairPlan
manualChain(NodeId dest, std::initializer_list<NodeId> nodes)
{
    std::vector<repair::PlanSource> sources;
    ChunkIndex chunk_idx = 1;
    for (NodeId n : nodes) {
        repair::PlanSource src;
        src.node = n;
        src.chunk = chunk_idx++;
        sources.push_back(src);
    }
    return repair::buildChainPlan(0, 0, dest, sources);
}

/** Completion time of one chain chunk repair at S slices. */
SimTime
chainRepairTime(int slices)
{
    sim::Simulator sim;
    cluster::ClusterConfig cfg;
    cfg.numNodes = 8;
    cfg.numClients = 0;
    cfg.uplinkBw = cfg.downlinkBw = 100.0;
    cfg.diskBw = 1000.0;
    cluster::Cluster cluster(sim, cfg);
    repair::ExecutorConfig ecfg;
    ecfg.chunkSize = 64.0;
    ecfg.sliceSize = 64.0;
    ecfg.slices = slices;
    ecfg.relayOverheadPerMiB = 0.0;
    repair::RepairExecutor exec(cluster, ecfg);

    auto plan = manualChain(6, {1, 2, 3, 4});
    auto d = repair::fromTree(plan);
    SimTime when = -1;
    exec.launchDag(d, plan,
                   [&](const repair::ChunkRepairPlan &, SimTime t) {
                       when = t;
                   });
    sim.run();
    EXPECT_GT(when, 0.0);
    return when;
}

TEST(DagPipelining, ChainApproachesOneSlicePerHop)
{
    // k = 4 network hops, chunk 64 bytes over 100 B/s links: one
    // chunk transfer C/B = 0.64 s, so the analytic pipelined-chain
    // bound is T_lb(S) = (k + S - 1)/S * C/B. S = 1 must behave like
    // whole-chunk store-and-forward (~k * C/B); as S grows the
    // makespan must fall monotonically toward one slice per hop,
    // landing within 15% of the bound.
    const double cb = 64.0 / 100.0;
    const int hops = 4;
    auto bound = [&](int s) {
        return (hops + s - 1) / static_cast<double>(s) * cb;
    };

    std::vector<int> sweep = {1, 2, 4, 8, 16, 32, 64};
    std::vector<SimTime> times;
    for (int s : sweep)
        times.push_back(chainRepairTime(s));

    // Store-and-forward at S = 1.
    EXPECT_GE(times[0], hops * cb);
    // Monotone improvement with finer slicing.
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_LE(times[i], times[i - 1] + 1e-9)
            << "S=" << sweep[i] << " slower than S=" << sweep[i - 1];
    // Each sliced point sits within 15% of the analytic bound.
    for (std::size_t i = 0; i < times.size(); ++i) {
        EXPECT_GE(times[i], bound(sweep[i]) * (1 - 1e-9));
        EXPECT_LE(times[i], bound(sweep[i]) * 1.15)
            << "S=" << sweep[i];
    }
    // And the finest slicing approaches one chunk transfer time.
    EXPECT_LT(times.back(), 1.3 * cb);
}

TEST(DagPipelining, StarAndMlfComplete)
{
    // The non-chain DAG shapes execute to completion through the
    // same slice machinery.
    sim::Simulator sim;
    cluster::ClusterConfig cfg;
    cfg.numNodes = 10;
    cfg.numClients = 0;
    cfg.uplinkBw = cfg.downlinkBw = 100.0;
    cfg.diskBw = 1000.0;
    cluster::Cluster cluster(sim, cfg);
    repair::ExecutorConfig ecfg;
    ecfg.chunkSize = 64.0;
    ecfg.sliceSize = 8.0;
    ecfg.relayOverheadPerMiB = 0.0;
    repair::RepairExecutor exec(cluster, ecfg);

    std::vector<dag::DagSource> sources;
    for (int i = 1; i <= 4; ++i)
        sources.push_back({static_cast<NodeId>(i),
                           static_cast<ChunkIndex>(i)});
    auto plan = manualChain(8, {1, 2, 3, 4});
    for (auto kind :
         {dag::RepairTopology::kStar, dag::RepairTopology::kMlf}) {
        auto d = dag::buildTopologyDag({kind, 2}, 0, 0, 8, sources,
                                       true);
        bool done = false;
        exec.launchDag(d, plan,
                       [&](const repair::ChunkRepairPlan &, SimTime) {
                           done = true;
                       });
        sim.run();
        EXPECT_TRUE(done) << dag::topologyKey({kind, 2});
    }
    EXPECT_EQ(cluster.network().activeFlowCount(), 0u);
}

// ---------------------------------------------------------- churn

/** Minimal churn rig for DAG-executed sessions (fault_test.cc has
 * the full-scenario version for the tree path). */
class DagChurnRig
{
  public:
    explicit DagChurnRig(uint64_t seed = 11, int nodes = 12,
                         int stripe_count = 8)
        : cfg_(makeConfig(nodes)), cluster_(sim_, cfg_),
          code_(ec::makeRs(4, 2)), stripes_(code_, nodes),
          executor_(cluster_, makeExecConfig()), planRng_(seed)
    {
        Rng rng(99);
        stripes_.createStripes(stripe_count, rng);
        Rng data_rng(5);
        for (int s = 0; s < stripe_count; ++s)
            data_.push_back(randomStripe(data_rng, *code_, 48));
    }

    static cluster::ClusterConfig
    makeConfig(int nodes)
    {
        cluster::ClusterConfig cfg;
        cfg.numNodes = nodes;
        cfg.numClients = 1;
        cfg.uplinkBw = 100.0;
        cfg.downlinkBw = 100.0;
        cfg.diskBw = 1000.0;
        cfg.usageWindow = 5.0;
        return cfg;
    }

    static repair::ExecutorConfig
    makeExecConfig()
    {
        repair::ExecutorConfig cfg;
        cfg.chunkSize = 64.0;
        cfg.sliceSize = 8.0;
        cfg.relayOverheadPerMiB = 0.0;
        return cfg;
    }

    repair::RepairSession::PlanFn
    planFn()
    {
        return [this](const cluster::FailedChunk &fc,
                      const std::vector<NodeId> &reserved) {
            auto plan = repair::makeBaselinePlan(
                stripes_, fc, repair::Topology::kChain, reserved,
                planRng_);
            finalPlan_[{fc.stripe, fc.chunk}] = plan;
            return plan;
        };
    }

    void
    crashNow(NodeId node, repair::RepairSession &session)
    {
        auto lost = stripes_.failNode(node);
        cluster_.markNodeDown(node);
        queued_.insert(queued_.end(), lost.begin(), lost.end());
        session.onNodeCrash(node, lost);
    }

    sim::Simulator sim_;
    cluster::ClusterConfig cfg_;
    cluster::Cluster cluster_;
    std::shared_ptr<const ec::ErasureCode> code_;
    cluster::StripeTable stripes_;
    repair::RepairExecutor executor_;
    Rng planRng_;
    std::vector<std::vector<ec::Buffer>> data_;
    std::map<std::pair<StripeId, ChunkIndex>, repair::ChunkRepairPlan>
        finalPlan_;
    std::vector<cluster::FailedChunk> queued_;
};

TEST(DagChurn, CrashMidSlicedRepairRePlansWithoutLeakingFlows)
{
    DagChurnRig rig;
    repair::RepairSession session(rig.stripes_, rig.executor_,
                                  rig.planFn(), {},
                                  *dag::topologyFromKey("chain"));
    auto initial = rig.stripes_.failNode(0);
    rig.cluster_.markNodeDown(0);
    rig.queued_.insert(rig.queued_.end(), initial.begin(),
                       initial.end());
    session.enqueue(initial);

    // Kill a helper of the first launched plan mid-pipeline, then a
    // second node a little later (compounding churn).
    rig.sim_.scheduleAfter(1.0, [&] {
        ASSERT_FALSE(rig.finalPlan_.empty());
        NodeId victim =
            rig.finalPlan_.begin()->second.sources[0].node;
        rig.crashNow(victim, session);
    });
    rig.sim_.scheduleAfter(3.0, [&] {
        for (NodeId n = 1; n < rig.cluster_.numNodes(); ++n) {
            if (!rig.cluster_.nodeDown(n)) {
                rig.crashNow(n, session);
                return;
            }
        }
    });
    rig.sim_.run();

    // The accounting closes: every queued chunk ends repaired or
    // reported unrecoverable, and nothing stays in flight.
    ASSERT_TRUE(session.finished());
    EXPECT_GE(session.crashReplans(), 1);
    EXPECT_EQ(session.totalChunks(),
              static_cast<int>(rig.queued_.size()));
    EXPECT_EQ(session.chunksRepaired() + session.chunksUnrecoverable(),
              session.totalChunks());
    EXPECT_EQ(session.inFlightCount(), 0);
    EXPECT_EQ(rig.cluster_.network().activeFlowCount(), 0u);

    // Repaired chunks are byte-exact under their final (chain-DAG)
    // plan and never landed on a dead node.
    std::set<std::pair<StripeId, ChunkIndex>> unrecoverable;
    for (const auto &fc : session.unrecoverable())
        unrecoverable.insert({fc.stripe, fc.chunk});
    for (const auto &fc : rig.queued_) {
        if (unrecoverable.count({fc.stripe, fc.chunk}))
            continue;
        EXPECT_FALSE(rig.stripes_.chunkLost(fc.stripe, fc.chunk));
        NodeId where = rig.stripes_.location(fc.stripe, fc.chunk);
        EXPECT_FALSE(rig.cluster_.nodeDown(where));
        auto it = rig.finalPlan_.find({fc.stripe, fc.chunk});
        ASSERT_NE(it, rig.finalPlan_.end());
        const auto &plan = it->second;
        const auto &chunks =
            rig.data_[static_cast<std::size_t>(fc.stripe)];
        const auto &want =
            chunks[static_cast<std::size_t>(fc.chunk)];
        EXPECT_EQ(repair::evaluatePlan(plan, chunks), want);
        // What actually executed was the chain DAG built from the
        // plan's sources — byte-identical as well.
        auto d = dag::buildTopologyDag(
            *dag::topologyFromKey("chain"), plan.stripe,
            plan.failedChunk, plan.destination,
            repair::toDagSources(plan.sources), plan.combinable);
        EXPECT_EQ(dag::evaluateDag(d, chunks), want);
    }
}

} // namespace
} // namespace chameleon
