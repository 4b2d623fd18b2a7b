/**
 * @file
 * End-to-end tests of the ChameleonEC scheduler: full-node repair on
 * an idle and a loaded cluster, phase pacing, straggler handling
 * (re-tuning and re-ordering), ablation switches, priority policies,
 * multi-node failure, and LRC/Butterfly generality.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/stripe_table.hh"
#include "ec/factory.hh"
#include "repair/chameleon_scheduler.hh"
#include "repair/executor.hh"
#include "repair/monitor.hh"
#include "util/rng.hh"

namespace chameleon {
namespace repair {
namespace {

struct Rig
{
    explicit Rig(std::shared_ptr<const ec::ErasureCode> code,
                 int nodes = 14, int stripes = 8, Rate link = 100.0,
                 Rate disk = 1000.0)
        : cluster(sim, makeConfig(nodes, link, disk)),
          stripesMgr(code, nodes),
          executor(cluster, ExecutorConfig{64.0, 8.0}),
          monitor(cluster, 1.0)
    {
        Rng rng(101);
        stripesMgr.createStripes(stripes, rng);
        monitor.start();
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

    ChameleonScheduler
    makeScheduler(ChameleonConfig cfg = {})
    {
        return ChameleonScheduler(stripesMgr, executor, monitor, cfg,
                                  Rng(7));
    }

    sim::Simulator sim;
    cluster::Cluster cluster;
    cluster::StripeTable stripesMgr;
    RepairExecutor executor;
    BandwidthMonitor monitor;
};

TEST(Chameleon, FullNodeRepairCompletes)
{
    Rig rig(ec::makeRs(4, 2));
    auto lost = rig.stripesMgr.failNode(0);
    ASSERT_FALSE(lost.empty());
    ChameleonConfig cfg;
    cfg.tPhase = 5.0;
    auto sched = rig.makeScheduler(cfg);
    sched.enqueue(lost);
    rig.sim.run(600.0);
    ASSERT_TRUE(sched.finished());
    EXPECT_EQ(sched.chunksRepaired(), static_cast<int>(lost.size()));
    EXPECT_GT(sched.throughput(), 0.0);
    EXPECT_GE(sched.phasesRun(), 1);
    EXPECT_TRUE(rig.stripesMgr.lostChunks().empty());
    for (const auto &fc : lost)
        EXPECT_NE(rig.stripesMgr.location(fc.stripe, fc.chunk), 0);
}

TEST(Chameleon, EmptyPendingFinishesImmediately)
{
    Rig rig(ec::makeRs(4, 2));
    auto sched = rig.makeScheduler();
    sched.enqueue({});
    EXPECT_TRUE(sched.finished());
    EXPECT_EQ(sched.chunksRepaired(), 0);
}

TEST(Chameleon, PhasesPaceAdmission)
{
    Rig rig(ec::makeRs(4, 2), 14, 8, /*link=*/10.0);
    auto lost = rig.stripesMgr.failNode(1);
    ASSERT_GE(lost.size(), 2u);
    ChameleonConfig cfg;
    cfg.tPhase = 4.0;
    auto sched = rig.makeScheduler(cfg);
    sched.enqueue(lost);
    rig.sim.run(3000.0);
    ASSERT_TRUE(sched.finished());
    // With a starved network, estimates exceed the phase budget and
    // admission spreads over multiple phases.
    EXPECT_GT(sched.phasesRun(), 1);
}

TEST(Chameleon, AvoidsForegroundLoadedDestination)
{
    Rig rig(ec::makeRs(4, 2));
    // Keep node 10 fully busy with a long foreground flow so the
    // monitor reports it as occupied.
    rig.cluster.network().startFlow(
        {rig.cluster.clientUplink(0), rig.cluster.downlink(10)}, 1e9,
        sim::FlowTag::kForeground, nullptr);
    rig.sim.run(3.0); // let the monitor observe it
    auto lost = rig.stripesMgr.failNode(0);
    ASSERT_FALSE(lost.empty());
    ChameleonConfig cfg;
    cfg.tPhase = 5.0;
    auto sched = rig.makeScheduler(cfg);
    sched.enqueue(lost);
    rig.sim.run(600.0);
    ASSERT_TRUE(sched.finished());
    // Node 10 may appear as a destination only if no alternative
    // existed; with this cluster there are always alternatives, so
    // Chameleon should have routed repairs elsewhere.
    for (const auto &fc : lost)
        EXPECT_NE(rig.stripesMgr.location(fc.stripe, fc.chunk), 10);
}

TEST(Chameleon, StragglerTriggersRetuning)
{
    Rig rig(ec::makeRs(4, 2), 14, 8, /*link=*/20.0);
    auto lost = rig.stripesMgr.failNode(0);
    ASSERT_FALSE(lost.empty());
    ChameleonConfig cfg;
    cfg.tPhase = 30.0;
    cfg.checkPeriod = 0.5;
    cfg.stragglerSlack = 0.5;
    auto sched = rig.makeScheduler(cfg);
    sched.enqueue(lost);
    // Throttle a busy node's uplink shortly after repair starts.
    rig.sim.schedule(1.0, [&] {
        for (NodeId n = 1; n < 6; ++n)
            rig.cluster.network().setCapacity(rig.cluster.uplink(n),
                                              0.5);
    });
    rig.sim.schedule(40.0, [&] {
        for (NodeId n = 1; n < 6; ++n)
            rig.cluster.network().setCapacity(rig.cluster.uplink(n),
                                              20.0);
    });
    rig.sim.run(4000.0);
    ASSERT_TRUE(sched.finished());
    EXPECT_GT(sched.retunes() + sched.reorders(), 0)
        << "straggler went unnoticed";
}

TEST(Chameleon, AblationSwitchesSuppressSar)
{
    Rig rig(ec::makeRs(4, 2), 14, 8, /*link=*/20.0);
    auto lost = rig.stripesMgr.failNode(0);
    ChameleonConfig cfg;
    cfg.enableReordering = false;
    cfg.enableRetuning = false;
    cfg.checkPeriod = 0.5;
    cfg.stragglerSlack = 0.5;
    auto sched = rig.makeScheduler(cfg);
    sched.enqueue(lost);
    rig.sim.schedule(1.0, [&] {
        rig.cluster.network().setCapacity(rig.cluster.uplink(2), 0.5);
    });
    rig.sim.schedule(30.0, [&] {
        rig.cluster.network().setCapacity(rig.cluster.uplink(2), 20.0);
    });
    rig.sim.run(4000.0);
    ASSERT_TRUE(sched.finished());
    EXPECT_EQ(sched.retunes(), 0);
    EXPECT_EQ(sched.reorders(), 0);
}

TEST(Chameleon, MultiNodeFailureAllPriorities)
{
    for (auto priority :
         {RepairPriority::kSequential, RepairPriority::kMostFailedFirst,
          RepairPriority::kShortestFirst}) {
        Rig rig(ec::makeRs(4, 2), 16, 8);
        auto lost = rig.stripesMgr.failNode(0);
        auto lost2 = rig.stripesMgr.failNode(1);
        lost.insert(lost.end(), lost2.begin(), lost2.end());
        ChameleonConfig cfg;
        cfg.tPhase = 5.0;
        cfg.priority = priority;
        auto sched = rig.makeScheduler(cfg);
        sched.enqueue(lost);
        rig.sim.run(2000.0);
        ASSERT_TRUE(sched.finished());
        EXPECT_TRUE(rig.stripesMgr.lostChunks().empty());
    }
}

TEST(Chameleon, WorksWithLrc)
{
    Rig rig(ec::makeLrc(8, 2, 2), 16, 6);
    auto lost = rig.stripesMgr.failNode(3);
    ASSERT_FALSE(lost.empty());
    ChameleonConfig cfg;
    cfg.tPhase = 5.0;
    auto sched = rig.makeScheduler(cfg);
    sched.enqueue(lost);
    rig.sim.run(1000.0);
    ASSERT_TRUE(sched.finished());
    EXPECT_TRUE(rig.stripesMgr.lostChunks().empty());
}

TEST(Chameleon, WorksWithButterfly)
{
    Rig rig(ec::makeButterfly(), 10, 6);
    auto lost = rig.stripesMgr.failNode(2);
    ASSERT_FALSE(lost.empty());
    ChameleonConfig cfg;
    cfg.tPhase = 5.0;
    auto sched = rig.makeScheduler(cfg);
    sched.enqueue(lost);
    rig.sim.run(1000.0);
    ASSERT_TRUE(sched.finished());
    EXPECT_TRUE(rig.stripesMgr.lostChunks().empty());
}

TEST(Chameleon, DegradedReadSingleChunk)
{
    Rig rig(ec::makeRs(4, 2));
    rig.stripesMgr.markLost(0, 1);
    ChameleonConfig cfg;
    cfg.tPhase = 5.0;
    auto sched = rig.makeScheduler(cfg);
    sched.enqueue({{0, 1}});
    rig.sim.run(200.0);
    ASSERT_TRUE(sched.finished());
    EXPECT_FALSE(rig.stripesMgr.chunkLost(0, 1));
    EXPECT_LT(sched.finishTime() - sched.startTime(), 60.0);
}

TEST(Chameleon, ReorderingWakesPostponedChunk)
{
    // Force a pause via a straggler that cannot be re-tuned
    // (retuning disabled), then verify the postponed chunk finishes
    // after the straggler clears.
    Rig rig(ec::makeRs(4, 2), 14, 8, /*link=*/20.0);
    auto lost = rig.stripesMgr.failNode(0);
    ChameleonConfig cfg;
    cfg.enableRetuning = false;
    cfg.checkPeriod = 0.5;
    cfg.stragglerSlack = 0.5;
    cfg.tPhase = 15.0;
    auto sched = rig.makeScheduler(cfg);
    sched.enqueue(lost);
    rig.sim.schedule(1.0, [&] {
        rig.cluster.network().setCapacity(rig.cluster.uplink(3), 0.2);
    });
    rig.sim.schedule(25.0, [&] {
        rig.cluster.network().setCapacity(rig.cluster.uplink(3), 20.0);
    });
    rig.sim.run(4000.0);
    ASSERT_TRUE(sched.finished());
}

} // namespace
} // namespace repair
} // namespace chameleon
