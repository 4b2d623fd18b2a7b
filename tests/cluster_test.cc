/**
 * @file
 * Tests for the cluster model and stripe metadata: resource wiring,
 * transfer paths, placement invariants, failure injection, and the
 * candidate source/destination views repair scheduling consumes.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/stripe_table.hh"
#include "ec/factory.hh"
#include "repair/executor.hh"
#include "repair/session.hh"
#include "repair/strategies.hh"
#include "util/rng.hh"

namespace chameleon {
namespace cluster {
namespace {

TEST(Cluster, ResourcesAreDistinct)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 5;
    cfg.numClients = 2;
    Cluster c(sim, cfg);
    std::set<sim::ResourceId> ids;
    for (NodeId n = 0; n < 5; ++n) {
        ids.insert(c.uplink(n));
        ids.insert(c.downlink(n));
        ids.insert(c.disk(n));
    }
    for (int cl = 0; cl < 2; ++cl) {
        ids.insert(c.clientUplink(cl));
        ids.insert(c.clientDownlink(cl));
    }
    EXPECT_EQ(ids.size(), 5u * 3 + 2u * 2);
    EXPECT_EQ(c.network().resourceCount(), ids.size());
}

TEST(Cluster, CapacitiesMatchConfig)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.numClients = 1;
    cfg.uplinkBw = 100.0;
    cfg.downlinkBw = 200.0;
    cfg.diskBw = 50.0;
    Cluster c(sim, cfg);
    EXPECT_DOUBLE_EQ(c.network().capacity(c.uplink(0)), 100.0);
    EXPECT_DOUBLE_EQ(c.network().capacity(c.downlink(1)), 200.0);
    EXPECT_DOUBLE_EQ(c.network().capacity(c.disk(2)), 50.0);
}

TEST(Cluster, TransferPathShapes)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 4;
    cfg.numClients = 1;
    Cluster c(sim, cfg);

    auto full = c.transferPath(0, 1, true, true);
    EXPECT_EQ(full, (std::vector<sim::ResourceId>{
                        c.disk(0), c.uplink(0), c.downlink(1),
                        c.disk(1)}));
    auto relay = c.transferPath(2, 3, false, false);
    EXPECT_EQ(relay, (std::vector<sim::ResourceId>{
                         c.uplink(2), c.downlink(3)}));
    auto read = c.clientReadPath(1, 0);
    EXPECT_EQ(read, (std::vector<sim::ResourceId>{
                        c.disk(1), c.uplink(1),
                        c.clientDownlink(0)}));
    auto write = c.clientWritePath(0, 2);
    EXPECT_EQ(write, (std::vector<sim::ResourceId>{
                         c.clientUplink(0), c.downlink(2),
                         c.disk(2)}));
}

TEST(Cluster, EndToEndTransferTiming)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.numClients = 0;
    cfg.uplinkBw = 100.0;
    cfg.downlinkBw = 100.0;
    cfg.diskBw = 10.0; // disk-bottlenecked
    Cluster c(sim, cfg);
    SimTime done = -1;
    c.network().startFlow(c.transferPath(0, 1, true, false), 100.0,
                          sim::FlowTag::kRepair,
                          [&] { done = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(done, 10.0);
}

class StripeManagerTest : public ::testing::Test
{
  protected:
    StripeManagerTest()
        : mgr_(ec::makeRs(4, 2), 10)
    {
        Rng rng(77);
        mgr_.createStripes(50, rng);
    }

    StripeTable mgr_;
};

TEST_F(StripeManagerTest, PlacementIsOneChunkPerNode)
{
    for (StripeId s = 0; s < mgr_.stripeCount(); ++s) {
        std::set<NodeId> nodes;
        for (ChunkIndex c = 0; c < mgr_.code().n(); ++c) {
            NodeId node = mgr_.location(s, c);
            EXPECT_GE(node, 0);
            EXPECT_LT(node, 10);
            nodes.insert(node);
        }
        EXPECT_EQ(nodes.size(),
                  static_cast<std::size_t>(mgr_.code().n()));
    }
}

TEST_F(StripeManagerTest, PlacementIsRoughlyBalanced)
{
    std::vector<int> load(10, 0);
    for (StripeId s = 0; s < mgr_.stripeCount(); ++s)
        for (ChunkIndex c = 0; c < mgr_.code().n(); ++c)
            load[static_cast<std::size_t>(mgr_.location(s, c))]++;
    // 50 stripes * 6 chunks over 10 nodes = 30 avg.
    for (int l : load) {
        EXPECT_GT(l, 10);
        EXPECT_LT(l, 50);
    }
}

TEST_F(StripeManagerTest, FailNodeMarksItsChunksLost)
{
    auto lost = mgr_.failNode(3);
    EXPECT_TRUE(mgr_.nodeFailed(3));
    EXPECT_FALSE(lost.empty());
    for (const auto &fc : lost) {
        EXPECT_EQ(mgr_.location(fc.stripe, fc.chunk), 3);
        EXPECT_TRUE(mgr_.chunkLost(fc.stripe, fc.chunk));
    }
    EXPECT_EQ(lost, mgr_.lostChunks());
}

TEST_F(StripeManagerTest, AvailableChunksExcludeLost)
{
    auto lost = mgr_.failNode(0);
    ASSERT_FALSE(lost.empty());
    const auto &fc = lost.front();
    auto avail = mgr_.availableChunks(fc.stripe);
    EXPECT_EQ(avail.size(),
              static_cast<std::size_t>(mgr_.code().n() - 1));
    EXPECT_EQ(std::find(avail.begin(), avail.end(), fc.chunk),
              avail.end());
}

TEST_F(StripeManagerTest, CandidateDestinationsExcludeHostsAndFailed)
{
    auto lost = mgr_.failNode(2);
    ASSERT_FALSE(lost.empty());
    const auto &fc = lost.front();
    auto dests = mgr_.candidateDestinations(fc.stripe);
    // 10 nodes - 5 live chunk hosts - 1 failed node = 4.
    EXPECT_EQ(dests.size(), 4u);
    for (NodeId d : dests) {
        EXPECT_FALSE(mgr_.nodeFailed(d));
        for (ChunkIndex c = 0; c < mgr_.code().n(); ++c) {
            if (!mgr_.chunkLost(fc.stripe, c)) {
                EXPECT_NE(mgr_.location(fc.stripe, c), d);
            }
        }
    }
}

TEST_F(StripeManagerTest, RepairUpdatesMetadata)
{
    auto lost = mgr_.failNode(5);
    ASSERT_FALSE(lost.empty());
    const auto &fc = lost.front();
    auto dests = mgr_.candidateDestinations(fc.stripe);
    ASSERT_FALSE(dests.empty());
    NodeId dest = dests.front();
    mgr_.markRepaired(fc.stripe, fc.chunk);
    mgr_.relocate(fc.stripe, fc.chunk, dest);
    EXPECT_FALSE(mgr_.chunkLost(fc.stripe, fc.chunk));
    EXPECT_EQ(mgr_.location(fc.stripe, fc.chunk), dest);
    // The stripe again spans n distinct live nodes.
    std::set<NodeId> nodes;
    for (ChunkIndex c = 0; c < mgr_.code().n(); ++c)
        nodes.insert(mgr_.location(fc.stripe, c));
    EXPECT_EQ(nodes.size(), static_cast<std::size_t>(mgr_.code().n()));
}

TEST_F(StripeManagerTest, RelocateOntoLiveHostPanics)
{
    auto lost = mgr_.failNode(1);
    ASSERT_FALSE(lost.empty());
    const auto &fc = lost.front();
    // Find a node hosting a live chunk of the same stripe.
    NodeId occupied = kInvalidNode;
    for (ChunkIndex c = 0; c < mgr_.code().n(); ++c) {
        if (c != fc.chunk && !mgr_.chunkLost(fc.stripe, c)) {
            occupied = mgr_.location(fc.stripe, c);
            break;
        }
    }
    ASSERT_NE(occupied, kInvalidNode);
    EXPECT_DEATH(mgr_.relocate(fc.stripe, fc.chunk, occupied),
                 "hosts live chunk");
}

TEST_F(StripeManagerTest, MultiNodeFailure)
{
    auto lost1 = mgr_.failNode(0);
    auto lost2 = mgr_.failNode(1);
    EXPECT_EQ(mgr_.lostChunks().size(), lost1.size() + lost2.size());
    // Stripes hit twice have two lost chunks.
    for (StripeId s = 0; s < mgr_.stripeCount(); ++s) {
        auto avail = mgr_.availableChunks(s);
        EXPECT_GE(avail.size(),
                  static_cast<std::size_t>(mgr_.code().n() - 2));
    }
}

TEST_F(StripeManagerTest, ChunksOnNodeConsistent)
{
    auto on3 = mgr_.chunksOnNode(3);
    int count = 0;
    for (StripeId s = 0; s < mgr_.stripeCount(); ++s)
        for (ChunkIndex c = 0; c < mgr_.code().n(); ++c)
            if (mgr_.location(s, c) == 3)
                ++count;
    EXPECT_EQ(static_cast<int>(on3.size()), count);
}

TEST(StripeManager, RejectsTooSmallCluster)
{
    EXPECT_DEATH(StripeTable(ec::makeRs(10, 4), 10),
                 "cannot host");
}

} // namespace
} // namespace cluster
} // namespace chameleon

namespace chameleon {
namespace cluster {
namespace {

TEST(RackTopology, FlatByDefault)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 6;
    cfg.numClients = 1;
    Cluster c(sim, cfg);
    EXPECT_EQ(c.rackOf(0), -1);
    // Cross-node path has no rack hops.
    EXPECT_EQ(c.transferPath(0, 1, false, false).size(), 2u);
}

TEST(RackTopology, CrossRackPathsTraverseAggregation)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 8;
    cfg.numClients = 1;
    cfg.racks = 2;
    Cluster c(sim, cfg);
    EXPECT_EQ(c.rackOf(0), 0);
    EXPECT_EQ(c.rackOf(1), 1);
    EXPECT_EQ(c.rackOf(2), 0);
    // Same rack (0 and 2): no aggregation hop.
    EXPECT_EQ(c.transferPath(0, 2, false, false),
              (std::vector<sim::ResourceId>{c.uplink(0),
                                            c.downlink(2)}));
    // Cross rack (0 -> 1): through rack0.up and rack1.down.
    EXPECT_EQ(c.transferPath(0, 1, false, false),
              (std::vector<sim::ResourceId>{
                  c.uplink(0), c.rackUplink(0), c.rackDownlink(1),
                  c.downlink(1)}));
    // Client paths include the node's rack link.
    auto read = c.clientReadPath(3, 0);
    EXPECT_NE(std::find(read.begin(), read.end(), c.rackUplink(1)),
              read.end());
}

TEST(RackTopology, AggregationCapacityFollowsOversubscription)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 8;
    cfg.numClients = 0;
    cfg.uplinkBw = 100.0;
    cfg.downlinkBw = 100.0;
    cfg.racks = 2;
    cfg.rackOversubscription = 4.0;
    Cluster c(sim, cfg);
    // 4 nodes per rack x 100 B/s / 4 oversubscription = 100 B/s.
    EXPECT_DOUBLE_EQ(c.network().capacity(c.rackUplink(0)), 100.0);
    EXPECT_DOUBLE_EQ(c.network().capacity(c.rackDownlink(1)), 100.0);
}

TEST(RackTopology, OversubscriptionThrottlesCrossRackRepair)
{
    // Two concurrent cross-rack transfers share the oversubscribed
    // aggregation link and take twice as long as same-rack ones.
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 8;
    cfg.numClients = 0;
    cfg.uplinkBw = cfg.downlinkBw = 100.0;
    cfg.diskBw = 1000.0;
    cfg.racks = 2;
    cfg.rackOversubscription = 4.0; // agg = 100 B/s
    Cluster c(sim, cfg);
    SimTime cross1 = -1, cross2 = -1, local = -1;
    c.network().startFlow(c.transferPath(0, 1, false, false), 100.0,
                          sim::FlowTag::kRepair,
                          [&] { cross1 = sim.now(); });
    c.network().startFlow(c.transferPath(2, 3, false, false), 100.0,
                          sim::FlowTag::kRepair,
                          [&] { cross2 = sim.now(); });
    c.network().startFlow(c.transferPath(4, 2, false, false), 100.0,
                          sim::FlowTag::kRepair,
                          [&] { local = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(local, 1.0); // same rack: full 100 B/s
    // The two cross-rack flows split rack0.up's 100 B/s.
    EXPECT_DOUBLE_EQ(cross1, 2.0);
    EXPECT_DOUBLE_EQ(cross2, 2.0);
}

TEST(RackTopology, RepairCompletesOnRackedCluster)
{
    // End-to-end sanity: the whole stack runs on a racked cluster.
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 12;
    cfg.numClients = 1;
    cfg.uplinkBw = cfg.downlinkBw = 100.0;
    cfg.diskBw = 1000.0;
    cfg.racks = 3;
    cfg.rackOversubscription = 2.0;
    Cluster c(sim, cfg);
    auto code = ec::makeRs(4, 2);
    StripeTable stripes(code, 12);
    Rng rng(7);
    stripes.createStripes(5, rng);
    repair::RepairExecutor exec(c,
                                repair::ExecutorConfig{64.0, 8.0});
    auto lost = stripes.failNode(0);
    ASSERT_FALSE(lost.empty());
    Rng prng(8);
    repair::RepairSession session(
        stripes, exec,
        [&](const FailedChunk &fc,
            const std::vector<NodeId> &reserved) {
            return repair::makeBaselinePlan(
                stripes, fc, repair::Topology::kStar, reserved, prng);
        });
    session.enqueue(lost);
    sim.run(2000.0);
    EXPECT_TRUE(session.finished());
}

} // namespace
} // namespace cluster
} // namespace chameleon
