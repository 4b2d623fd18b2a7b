/**
 * @file
 * The RepairDriver contract, checked against every driver (the
 * baseline session, the ChameleonEC scheduler and the hedged
 * degraded-read manager): work enters through enqueue(), a crash
 * mid-repair is absorbed, the accounting closes, and the outcome
 * hook fires exactly once per queued chunk. Also the loss-counting
 * rule for chunks that come back after being declared unrecoverable.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>

#include "cluster/cluster.hh"
#include "ec/factory.hh"
#include "repair/chameleon_scheduler.hh"
#include "repair/monitor.hh"
#include "repair/session.hh"
#include "repair/strategies.hh"
#include "traffic/hedged_read.hh"
#include "util/rng.hh"

namespace chameleon {
namespace repair {
namespace {

struct Rig
{
    explicit Rig(int nodes, int stripe_count)
        : cluster(sim, makeConfig(nodes)), stripes(ec::makeRs(4, 2), nodes),
          executor(cluster, ExecutorConfig{64.0, 8.0}),
          monitor(cluster, 1.0)
    {
        Rng rng(101);
        stripes.createStripes(stripe_count, rng);
        monitor.start();
    }

    static cluster::ClusterConfig makeConfig(int nodes)
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

    sim::Simulator sim;
    cluster::Cluster cluster;
    cluster::StripeTable stripes;
    RepairExecutor executor;
    BandwidthMonitor monitor;
    Rng planRng{55};
};

using Factory = std::function<std::unique_ptr<RepairDriver>(Rig &)>;

std::vector<std::pair<const char *, Factory>>
everyDriver()
{
    return {
        {"session",
         [](Rig &rig) -> std::unique_ptr<RepairDriver> {
             return std::make_unique<RepairSession>(
                 rig.stripes, rig.executor,
                 [&rig](const cluster::FailedChunk &fc,
                        const std::vector<NodeId> &reserved) {
                     return makeBaselinePlan(rig.stripes, fc,
                                             Topology::kStar, reserved,
                                             rig.planRng);
                 });
         }},
        {"chameleon",
         [](Rig &rig) -> std::unique_ptr<RepairDriver> {
             ChameleonConfig cfg;
             cfg.tPhase = 5.0;
             return std::make_unique<ChameleonScheduler>(
                 rig.stripes, rig.executor, rig.monitor, cfg, Rng(7));
         }},
        {"hedged",
         [](Rig &rig) -> std::unique_ptr<RepairDriver> {
             traffic::HedgedReadConfig cfg;
             cfg.enabled = true;
             cfg.hedgeMinDelay = 0.1;
             return std::make_unique<traffic::HedgedReadManager>(
                 rig.stripes, rig.executor, rig.monitor, cfg);
         }},
    };
}

using Key = std::pair<StripeId, ChunkIndex>;

TEST(RepairDriver, ContractHoldsForEveryDriver)
{
    for (const auto &[name, make] : everyDriver()) {
        SCOPED_TRACE(name);
        Rig rig(12, 8);
        auto driver = make(rig);
        std::map<Key, int> outcomes;
        driver->setOutcomeHook(
            [&](const cluster::FailedChunk &fc, bool) {
                ++outcomes[{fc.stripe, fc.chunk}];
            });

        auto lost = rig.stripes.failNode(0);
        rig.cluster.markNodeDown(0);
        ASSERT_FALSE(lost.empty());
        std::map<Key, int> queued;
        for (const auto &fc : lost)
            ++queued[{fc.stripe, fc.chunk}];
        driver->enqueue(lost);
        EXPECT_FALSE(driver->finished());

        // Crash a node that is serving a repair right now.
        NodeId victim = kInvalidNode;
        rig.sim.scheduleAfter(0.5, [&] {
            for (NodeId n = 1; n < rig.cluster.numNodes(); ++n) {
                if (!rig.cluster.nodeDown(n) &&
                    rig.executor.activeEdgesTouching(n) > 0) {
                    victim = n;
                    break;
                }
            }
            ASSERT_NE(victim, kInvalidNode) << "nothing in flight";
            auto more = rig.stripes.failNode(victim);
            rig.cluster.markNodeDown(victim);
            for (const auto &fc : more)
                ++queued[{fc.stripe, fc.chunk}];
            driver->onNodeCrash(victim, more);
        });
        rig.sim.run(5000.0);

        ASSERT_TRUE(driver->finished());
        EXPECT_GE(driver->crashReplans(), 1);
        EXPECT_EQ(driver->totalChunks(), static_cast<int>(queued.size()));
        EXPECT_EQ(driver->chunksRepaired() + driver->chunksUnrecoverable(),
                  driver->totalChunks());
        EXPECT_EQ(outcomes, queued) << "outcome hook must fire exactly "
                                       "once per queued chunk";
        EXPECT_GE(driver->finishTime(), driver->startTime());
    }
}

TEST(RepairDriver, ComebackOfUnrecoverableChunkCountsOnce)
{
    // RS(4,2) on exactly six nodes: every node holds a chunk of the
    // stripe, so a lost chunk has no destination until the dead node
    // rejoins, empty. The replicator scanner re-queues such chunks on
    // every sweep; each comeback must settle without a second count.
    for (const auto &[name, make] : everyDriver()) {
        SCOPED_TRACE(name);
        Rig rig(6, 1);
        auto driver = make(rig);
        std::vector<bool> outcomes;
        driver->setOutcomeHook(
            [&](const cluster::FailedChunk &, bool repaired) {
                outcomes.push_back(repaired);
            });
        auto lost = rig.stripes.failNode(0);
        rig.cluster.markNodeDown(0);
        ASSERT_EQ(lost.size(), 1u);

        driver->enqueue(lost);
        rig.sim.run(rig.sim.now() + 10.0);
        ASSERT_TRUE(driver->finished());
        EXPECT_EQ(driver->chunksUnrecoverable(), 1);

        driver->enqueue(lost); // still no destination
        rig.sim.run(rig.sim.now() + 10.0);
        ASSERT_TRUE(driver->finished());
        EXPECT_EQ(driver->totalChunks(), 1);
        EXPECT_EQ(driver->chunksUnrecoverable(), 1);
        EXPECT_EQ(driver->chunksRepaired(), 0);

        rig.stripes.rejoinNode(0);
        rig.cluster.markNodeUp(0);
        driver->enqueue(lost); // node 0 is a destination again
        rig.sim.run(rig.sim.now() + 1000.0);
        ASSERT_TRUE(driver->finished());
        EXPECT_EQ(driver->totalChunks(), 1);
        EXPECT_EQ(driver->chunksRepaired(), 1);
        EXPECT_EQ(driver->chunksUnrecoverable(), 0);
        EXPECT_TRUE(driver->unrecoverable().empty());
        EXPECT_EQ(outcomes, (std::vector<bool>{false, false, true}));
    }
}

} // namespace
} // namespace repair
} // namespace chameleon
