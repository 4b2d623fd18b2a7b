/**
 * @file
 * Tests for the repair execution layer: slice pipelining semantics of
 * star/tree/chain plans, the exactly-once contribution invariant,
 * pause/resume (transmission re-ordering), re-tuning mid-repair,
 * bandwidth-monitor estimates, and the baseline repair session.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/stripe_table.hh"
#include "ec/factory.hh"
#include "repair/dag_bridge.hh"
#include "repair/executor.hh"
#include "repair/monitor.hh"
#include "repair/session.hh"
#include "repair/strategies.hh"
#include "telemetry/telemetry.hh"
#include "util/rng.hh"

namespace chameleon {
namespace repair {
namespace {

/** A small, fast-to-simulate test rig. */
class ExecRig
{
  public:
    ExecRig(int nodes = 12, Rate link = 100.0, Rate disk = 1000.0)
        : cfg_(makeConfig(nodes, link, disk)), cluster_(sim_, cfg_),
          code_(ec::makeRs(4, 2)), stripes_(code_, nodes),
          executor_(cluster_, ExecutorConfig{64.0, 8.0})
    {
        Rng rng(99);
        stripes_.createStripes(6, rng);
    }

    static cluster::ClusterConfig
    makeConfig(int nodes, Rate link, Rate disk)
    {
        cluster::ClusterConfig cfg;
        cfg.numNodes = nodes;
        cfg.numClients = 1;
        cfg.uplinkBw = link;
        cfg.downlinkBw = link;
        cfg.diskBw = disk;
        cfg.usageWindow = 5.0;
        return cfg;
    }

    ChunkRepairPlan
    planFor(StripeId stripe, ChunkIndex failed, Topology topo,
            uint64_t seed)
    {
        Rng rng(seed);
        stripes_.markLost(stripe, failed);
        auto plan = makeBaselinePlan(stripes_, {stripe, failed}, topo,
                                     {}, rng);
        return plan;
    }

    sim::Simulator sim_;
    cluster::ClusterConfig cfg_;
    cluster::Cluster cluster_;
    std::shared_ptr<const ec::ErasureCode> code_;
    cluster::StripeTable stripes_;
    RepairExecutor executor_;
};

TEST(Executor, StarPlanCompletes)
{
    ExecRig rig;
    auto plan = rig.planFor(0, 0, Topology::kStar, 1);
    bool done = false;
    SimTime when = -1;
    rig.executor_.launch(plan, [&](const ChunkRepairPlan &, SimTime t) {
        done = true;
        when = t;
    });
    rig.sim_.run();
    EXPECT_TRUE(done);
    EXPECT_GT(when, 0.0);
    EXPECT_EQ(rig.executor_.completedChunks(), 1);
    EXPECT_DOUBLE_EQ(rig.executor_.repairedBytes(), 64.0);
}

TEST(Executor, AllTopologiesComplete)
{
    for (auto topo :
         {Topology::kStar, Topology::kTree, Topology::kChain}) {
        ExecRig rig;
        auto plan = rig.planFor(1, 2, topo, 7);
        bool done = false;
        rig.executor_.launch(plan,
                             [&](const ChunkRepairPlan &, SimTime) {
                                 done = true;
                             });
        rig.sim_.run();
        EXPECT_TRUE(done) << topologyName(topo);
    }
}

TEST(Executor, StarTimingOnIdleCluster)
{
    // k=4 sources, chunk 64, slice 8, link 100 B/s, disk plentiful.
    // All four edges share the destination downlink: aggregate
    // 4*64 = 256 bytes through a 100 B/s downlink -> ~2.56 s.
    ExecRig rig;
    auto plan = rig.planFor(0, 1, Topology::kStar, 3);
    SimTime when = -1;
    rig.executor_.launch(plan, [&](const ChunkRepairPlan &, SimTime t) {
        when = t;
    });
    rig.sim_.run();
    EXPECT_NEAR(when, 2.56, 0.1);
}

TEST(Executor, ChainPipelineIsFasterThanSequential)
{
    // A chain ships k chunks total but pipelines slices; completion
    // should be near one chunk time plus pipeline fill, much less
    // than k sequential chunk times.
    ExecRig rig;
    auto plan = rig.planFor(2, 0, Topology::kChain, 5);
    SimTime when = -1;
    rig.executor_.launch(plan, [&](const ChunkRepairPlan &, SimTime t) {
        when = t;
    });
    rig.sim_.run();
    // One chunk over a 100 B/s hop = 0.64 s; pipeline fill adds
    // ~3 slice times (0.08 s each). Sequential would be ~2.56 s.
    EXPECT_LT(when, 1.6);
    EXPECT_GT(when, 0.64);
}

TEST(Executor, EdgeStatusProgresses)
{
    ExecRig rig;
    auto plan = rig.planFor(0, 0, Topology::kStar, 11);
    RepairId id = rig.executor_.launch(plan, nullptr);
    rig.sim_.run(1.0);
    ASSERT_TRUE(rig.executor_.chunkActive(id));
    auto statuses = rig.executor_.edgeStatus(id);
    EXPECT_EQ(statuses.size(), 4u);
    int delivered = 0;
    for (const auto &st : statuses) {
        EXPECT_EQ(st.slicesTotal, 8);
        delivered += st.slicesDelivered;
    }
    EXPECT_GT(delivered, 0);
    rig.sim_.run();
    EXPECT_FALSE(rig.executor_.chunkActive(id));
}

/** Finish time and flows started for one repair of a 64-byte chunk
 * on an idle 8-node cluster (100 B/s links, 1000 B/s disks, no relay
 * overhead), through launch() or through launchDag(fromTree(plan)). */
std::pair<SimTime, int64_t>
idleRepair(const ChunkRepairPlan &plan, int slices, bool lowered)
{
    sim::Simulator sim;
    auto cfg = ExecRig::makeConfig(8, 100.0, 1000.0);
    cfg.numClients = 0;
    cluster::Cluster cluster(sim, cfg);
    ExecutorConfig ecfg;
    ecfg.chunkSize = 64.0;
    ecfg.sliceSize = 64.0;
    ecfg.slices = slices;
    ecfg.relayOverheadPerMiB = 0.0;
    RepairExecutor exec(cluster, ecfg);
    const auto &started =
        telemetry::metrics().counter("sim.flows.started").value;
    const int64_t before = started.load();
    SimTime when = -1;
    auto done = [&](const ChunkRepairPlan &, SimTime t) { when = t; };
    if (lowered)
        exec.launchDag(fromTree(plan), plan, done);
    else
        exec.launch(plan, done);
    sim.run();
    return {when, started.load() - before};
}

TEST(Executor, TreeAndLoweringDifferOnlyInRelayDiskReads)
{
    // The one rule the engine takes from a plan's shape: a tree
    // relay reads its own helper inside its upload flow, while the
    // lowered relay (leaf + co-located Join) reads it in a separate
    // local disk flow, one per slice. Timing is the same; the
    // lowered chain starts (k - 1) * S more flows.
    std::vector<PlanSource> sources;
    for (NodeId n : {1, 2, 3, 4}) {
        PlanSource src;
        src.node = n;
        src.chunk = n;
        sources.push_back(src);
    }
    const auto star = buildStarPlan(0, 0, 6, sources, true);
    const auto chain = buildChainPlan(0, 0, 6, sources);
    struct Want
    {
        int slices;
        int64_t flows; // k uploads per slice + one write per slice
        SimTime chainTime;
    };
    for (const Want &w : {Want{1, 5, 2.624}, Want{8, 40, 0.888}}) {
        SCOPED_TRACE("S=" + std::to_string(w.slices));
        const auto star_tree = idleRepair(star, w.slices, false);
        const auto star_dag = idleRepair(star, w.slices, true);
        EXPECT_DOUBLE_EQ(star_tree.first, star_dag.first);
        EXPECT_EQ(star_tree.second, w.flows);
        EXPECT_EQ(star_dag.second, w.flows);

        const auto chain_tree = idleRepair(chain, w.slices, false);
        const auto chain_dag = idleRepair(chain, w.slices, true);
        EXPECT_NEAR(chain_tree.first, w.chainTime, 1e-9);
        EXPECT_DOUBLE_EQ(chain_tree.first, chain_dag.first);
        EXPECT_EQ(chain_tree.second, w.flows);
        EXPECT_EQ(chain_dag.second, w.flows + 3 * w.slices);
    }
}

TEST(Executor, PauseStopsProgressResumeFinishes)
{
    ExecRig rig;
    auto plan = rig.planFor(0, 0, Topology::kStar, 13);
    bool done = false;
    RepairId id = rig.executor_.launch(
        plan,
        [&](const ChunkRepairPlan &, SimTime) { done = true; });
    rig.sim_.schedule(0.5, [&] { rig.executor_.pauseChunk(id); });
    rig.sim_.run(5.0);
    EXPECT_FALSE(done);
    ASSERT_TRUE(rig.executor_.chunkActive(id));
    // In-flight slices drained; nothing else moves while paused.
    auto statuses = rig.executor_.edgeStatus(id);
    for (const auto &st : statuses)
        EXPECT_LT(st.slicesDelivered, st.slicesTotal);
    rig.executor_.resumeChunk(id);
    rig.sim_.run();
    EXPECT_TRUE(done);
}

TEST(Executor, PausedChunkNotCountedAsActiveEdges)
{
    ExecRig rig;
    auto plan = rig.planFor(0, 0, Topology::kStar, 17);
    RepairId id = rig.executor_.launch(plan, nullptr);
    rig.sim_.run(0.5);
    NodeId src0 = plan.sources[0].node;
    EXPECT_GT(rig.executor_.activeEdgesTouching(src0), 0);
    rig.executor_.pauseChunk(id);
    EXPECT_EQ(rig.executor_.activeEdgesTouching(src0), 0);
}

TEST(Executor, RetunePreservesExactlyOnceInvariant)
{
    // Retune a relay's feeder mid-transfer: the chunk must still
    // complete, and the executor's internal mask assertion verifies
    // every slice got each contribution exactly once.
    ExecRig rig;
    auto plan = rig.planFor(1, 1, Topology::kChain, 19);
    bool done = false;
    RepairId id = rig.executor_.launch(
        plan,
        [&](const ChunkRepairPlan &, SimTime) { done = true; });
    // Find an edge targeting a relay (chain: source 0 -> source 1).
    rig.sim_.schedule(0.3, [&] {
        if (rig.executor_.chunkActive(id))
            rig.executor_.retuneEdge(id, 0);
    });
    rig.sim_.run();
    EXPECT_TRUE(done);
}

TEST(Executor, RetuneEveryRelayEdgeStillCorrect)
{
    // Aggressively retune all relay-targeted edges of a PPR tree at
    // staggered times; the invariant must hold throughout.
    ExecRig rig;
    auto plan = rig.planFor(2, 3, Topology::kTree, 23);
    bool done = false;
    RepairId id = rig.executor_.launch(
        plan,
        [&](const ChunkRepairPlan &, SimTime) { done = true; });
    for (int i = 0; i < static_cast<int>(plan.sources.size()); ++i) {
        double when = 0.2 + 0.15 * i;
        rig.sim_.schedule(when, [&, i] {
            if (rig.executor_.chunkActive(id))
                rig.executor_.retuneEdge(id, i);
        });
    }
    rig.sim_.run();
    EXPECT_TRUE(done);
}

TEST(Executor, RetuneBypassesStalledRelayDownlink)
{
    // The paper's Figure 10(b) scenario: a relay's downlink is
    // constrained, stalling the download it is supposed to receive.
    // Re-tuning redirects that download to the destination, after
    // which the whole repair completes even though the relay's
    // downlink stays stalled (the relay only needs its uplink).
    ExecRig rig;
    auto plan = rig.planFor(3, 0, Topology::kChain, 29);
    NodeId relay = plan.sources[1].node;
    bool done = false;
    RepairId id = rig.executor_.launch(
        plan,
        [&](const ChunkRepairPlan &, SimTime) { done = true; });
    rig.sim_.schedule(0.1, [&] {
        rig.cluster_.network().setCapacity(
            rig.cluster_.downlink(relay), 1e-3);
    });
    rig.sim_.run(20.0);
    EXPECT_FALSE(done) << "stall did not bite";
    // Redirect the head's upload (chain edge 0 targets the relay).
    rig.executor_.retuneEdge(id, 0);
    rig.sim_.run(200.0);
    EXPECT_TRUE(done)
        << "repair should finish with the relay downlink still dead";
}

TEST(Executor, ExpectationStored)
{
    ExecRig rig;
    auto plan = rig.planFor(0, 0, Topology::kStar, 31);
    RepairId id = rig.executor_.launch(plan, nullptr);
    rig.executor_.setEdgeExpectation(id, 2, 42.0);
    auto statuses = rig.executor_.edgeStatus(id);
    EXPECT_DOUBLE_EQ(statuses[2].expectation, 42.0);
    EXPECT_EQ(statuses[0].expectation, kTimeNever);
    rig.sim_.run();
}

TEST(Monitor, EstimatesTrackForegroundUsage)
{
    ExecRig rig;
    BandwidthMonitor monitor(rig.cluster_, 1.0);
    monitor.start();
    // Saturate node 2's uplink with a foreground flow.
    rig.cluster_.network().startFlow(
        {rig.cluster_.uplink(2), rig.cluster_.clientDownlink(0)},
        1e6, sim::FlowTag::kForeground, nullptr);
    rig.sim_.run(3.5);
    EXPECT_GT(monitor.sampleCount(), 0);
    // Node 2 uplink looks nearly fully occupied (floored at 2%).
    EXPECT_LT(monitor.residualUplink(2), 10.0);
    // An idle node still looks idle.
    EXPECT_NEAR(monitor.residualUplink(5), 100.0, 1.0);
    monitor.stop();
}

TEST(Monitor, StorageDimensionKeysOnDisk)
{
    ExecRig rig;
    BandwidthMonitor net_mon(rig.cluster_, 1.0,
                             BandwidthMonitor::Dimension::kNetwork);
    BandwidthMonitor disk_mon(rig.cluster_, 1.0,
                              BandwidthMonitor::Dimension::kStorage);
    EXPECT_NEAR(net_mon.dispatchUp(0), 100.0, 1e-9);
    EXPECT_NEAR(disk_mon.dispatchUp(0), 1000.0, 1e-9);
}

TEST(Session, RepairsAllChunksAndUpdatesMetadata)
{
    ExecRig rig;
    auto lost = rig.stripes_.failNode(0);
    ASSERT_FALSE(lost.empty());
    Rng rng(55);
    RepairSession session(
        rig.stripes_, rig.executor_,
        [&](const cluster::FailedChunk &fc,
            const std::vector<NodeId> &reserved) {
            return makeBaselinePlan(rig.stripes_, fc, Topology::kStar,
                                    reserved, rng);
        },
        SessionConfig{2});
    session.enqueue(lost);
    rig.sim_.run();
    EXPECT_TRUE(session.finished());
    EXPECT_EQ(session.chunksRepaired(),
              static_cast<int>(lost.size()));
    EXPECT_GT(session.throughput(), 0.0);
    for (const auto &fc : lost) {
        EXPECT_FALSE(rig.stripes_.chunkLost(fc.stripe, fc.chunk));
        EXPECT_NE(rig.stripes_.location(fc.stripe, fc.chunk), 0);
    }
    EXPECT_TRUE(rig.stripes_.lostChunks().empty());
}

TEST(Session, WindowLimitsConcurrency)
{
    ExecRig rig;
    auto lost = rig.stripes_.failNode(1);
    ASSERT_GE(lost.size(), 2u);
    Rng rng(56);
    RepairSession session(
        rig.stripes_, rig.executor_,
        [&](const cluster::FailedChunk &fc,
            const std::vector<NodeId> &reserved) {
            return makeBaselinePlan(rig.stripes_, fc, Topology::kStar,
                                    reserved, rng);
        },
        SessionConfig{1});
    session.enqueue(lost);
    // With a window of 1, at most one chunk repair's edges exist.
    rig.sim_.schedule(0.1, [&] {
        int total = 0;
        for (NodeId n = 0; n < rig.cluster_.numNodes(); ++n)
            total += rig.executor_.activeEdgesTouching(n);
        // Each star edge touches 2 nodes -> 4 edges = 8 touches max.
        EXPECT_LE(total, 8);
    });
    rig.sim_.run();
    EXPECT_TRUE(session.finished());
}

TEST(RepairBoost, BalancesAssignedTraffic)
{
    ExecRig rig;
    auto lost = rig.stripes_.failNode(2);
    ASSERT_GE(lost.size(), 2u);
    RepairBoostSelector rb(rig.cluster_.numNodes());
    Rng rng(57);
    for (const auto &fc : lost)
        rb.makePlan(rig.stripes_, fc, Topology::kStar, {}, rng);
    // Assigned upload traffic should be spread: max/min over nodes
    // that got any load is bounded.
    Bytes lo = 1e18, hi = 0;
    for (NodeId n = 0; n < rig.cluster_.numNodes(); ++n) {
        Bytes b = rb.assignedUpload(n);
        if (b > 0) {
            lo = std::min(lo, b);
            hi = std::max(hi, b);
        }
    }
    EXPECT_LE(hi, lo * 4.0) << "RB selection left load unbalanced";
}

} // namespace
} // namespace repair
} // namespace chameleon

namespace chameleon {
namespace repair {
namespace {

/** Hand-built star plan over explicit nodes (executor only needs the
 * plan; no stripe metadata involved). */
ChunkRepairPlan
manualStar(NodeId dest, std::initializer_list<NodeId> sources)
{
    ChunkRepairPlan plan;
    plan.stripe = 0;
    plan.failedChunk = 0;
    plan.destination = dest;
    ChunkIndex chunk_idx = 1;
    for (NodeId n : sources) {
        PlanSource src;
        src.node = n;
        src.chunk = chunk_idx++;
        plan.sources.push_back(src);
    }
    return plan;
}

TEST(TaskQueue, SingleSlotSerializesTasksToCompletion)
{
    // Two chunks share the same two source nodes; with one upload
    // slot per node, the first chunk's tasks run to completion
    // before the second's start (FIFO task queues), so completions
    // stagger at roughly 1:2.
    sim::Simulator sim;
    cluster::ClusterConfig cfg;
    cfg.numNodes = 6;
    cfg.numClients = 0;
    cfg.uplinkBw = cfg.downlinkBw = 100.0;
    cfg.diskBw = 1000.0;
    cluster::Cluster cluster(sim, cfg);
    ExecutorConfig ecfg;
    ecfg.chunkSize = 64.0;
    ecfg.sliceSize = 8.0;
    ecfg.nodeUploadSlots = 1;
    RepairExecutor exec(cluster, ecfg);

    SimTime done1 = -1, done2 = -1;
    exec.launch(manualStar(4, {1, 2}),
                [&](const ChunkRepairPlan &, SimTime t) { done1 = t; });
    exec.launch(manualStar(5, {1, 2}),
                [&](const ChunkRepairPlan &, SimTime t) { done2 = t; });
    sim.run();
    ASSERT_GT(done1, 0.0);
    ASSERT_GT(done2, 0.0);
    // Progressive, not batch, completion.
    EXPECT_GT(done2, done1 * 1.5);
}

TEST(TaskQueue, PauseReleasesHeldSlots)
{
    // Chunk A holds both sources' upload slots; pausing it must let
    // chunk B (same sources) run immediately.
    sim::Simulator sim;
    cluster::ClusterConfig cfg;
    cfg.numNodes = 6;
    cfg.numClients = 0;
    cfg.uplinkBw = cfg.downlinkBw = 100.0;
    cfg.diskBw = 1000.0;
    cluster::Cluster cluster(sim, cfg);
    ExecutorConfig ecfg;
    ecfg.chunkSize = 64.0;
    ecfg.sliceSize = 8.0;
    ecfg.nodeUploadSlots = 1;
    RepairExecutor exec(cluster, ecfg);

    RepairId a = exec.launch(manualStar(4, {1, 2}), nullptr);
    SimTime done_b = -1;
    exec.launch(manualStar(5, {1, 2}),
                [&](const ChunkRepairPlan &, SimTime t) {
                    done_b = t;
                });
    sim.schedule(0.1, [&] { exec.pauseChunk(a); });
    sim.run(10.0);
    // B finished as if alone (~1.3 s for 2 x 64 bytes at 100 B/s,
    // restarted at 0.1 s); far sooner than the ~2.6 s serialized
    // schedule.
    EXPECT_GT(done_b, 0.0);
    EXPECT_LT(done_b, 2.0);
    ASSERT_TRUE(exec.chunkActive(a));
    exec.resumeChunk(a);
    sim.run();
    EXPECT_FALSE(exec.chunkActive(a));
}

TEST(TaskQueue, DepBlockedRelayYieldsSlot)
{
    // A chain relay blocked on its feeder must not hold its upload
    // slot hostage: another chunk's edge from the same node runs.
    sim::Simulator sim;
    cluster::ClusterConfig cfg;
    cfg.numNodes = 8;
    cfg.numClients = 0;
    cfg.uplinkBw = cfg.downlinkBw = 100.0;
    cfg.diskBw = 1000.0;
    cluster::Cluster cluster(sim, cfg);
    ExecutorConfig ecfg;
    ecfg.chunkSize = 64.0;
    ecfg.sliceSize = 8.0;
    ecfg.nodeUploadSlots = 1;
    ecfg.relayOverheadPerMiB = 0.0;
    RepairExecutor exec(cluster, ecfg);

    // Chain: node1 -> node2 -> dest 6; throttle node1's uplink so
    // node2 is dependency-starved.
    ChunkRepairPlan chain = manualStar(6, {1, 2});
    chain.sources[0].parent = 1; // node1 feeds node2
    chain.validate();
    cluster.network().setCapacity(cluster.uplink(1), 1.0);
    exec.launch(chain, nullptr);
    // A star chunk uploading from node2 must proceed meanwhile.
    SimTime done_star = -1;
    exec.launch(manualStar(7, {2, 3}),
                [&](const ChunkRepairPlan &, SimTime t) {
                    done_star = t;
                });
    sim.run(20.0);
    EXPECT_GT(done_star, 0.0);
    EXPECT_LT(done_star, 5.0);
}

} // namespace
} // namespace repair
} // namespace chameleon
