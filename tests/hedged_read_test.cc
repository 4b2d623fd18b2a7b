/**
 * @file
 * Tests for the hedged degraded-read manager: single-attempt
 * completion on a healthy cluster, hedge launch + win against a
 * pinned straggler helper, silent cancellation of the losing
 * attempt, the no-hedge baseline, crash re-planning, and the
 * unrecoverable path.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/stripe_table.hh"
#include "ec/factory.hh"
#include "repair/executor.hh"
#include "repair/monitor.hh"
#include "traffic/hedged_read.hh"
#include "util/rng.hh"

namespace chameleon {
namespace traffic {
namespace {

/** Small rig mirroring repair_exec_test's ExecRig, with the hedged
 * manager wired in place of the session. */
class HedgeRig
{
  public:
    explicit HedgeRig(HedgedReadConfig cfg = makeHedgeConfig(),
                      int nodes = 12)
        : cfg_(makeClusterConfig(nodes)), cluster_(sim_, cfg_),
          code_(ec::makeRs(4, 2)), stripes_(code_, nodes),
          executor_(cluster_, repair::ExecutorConfig{64.0, 8.0}),
          monitor_(cluster_, 1.0),
          manager_(stripes_, executor_, monitor_, cfg)
    {
        Rng rng(99);
        stripes_.createStripes(6, rng);
    }

    static HedgedReadConfig makeHedgeConfig()
    {
        HedgedReadConfig cfg;
        cfg.enabled = true;
        // Estimates on the idle test cluster are seconds-scale;
        // keep the floor below them so timers track the estimate.
        cfg.hedgeMinDelay = 0.1;
        return cfg;
    }

    static cluster::ClusterConfig makeClusterConfig(int nodes)
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

    /** Loses `chunk` of `stripe` and returns its read request. */
    cluster::FailedChunk lose(StripeId stripe, ChunkIndex chunk)
    {
        stripes_.markLost(stripe, chunk);
        return {stripe, chunk};
    }

    /** Node hosting the lowest-index surviving chunk of `stripe` —
     * with a sample-free monitor every helper estimate ties, so the
     * primary attempt reads this node first. */
    NodeId firstHelperNode(StripeId stripe)
    {
        for (ChunkIndex c = 0; c < code_->n(); ++c)
            if (!stripes_.chunkLost(stripe, c))
                return stripes_.location(stripe, c);
        return kInvalidNode;
    }

    /** Throttles a node's uplink to a crawl (pinned straggler). */
    void throttleUplink(NodeId node, Rate to)
    {
        cluster_.network().setCapacity(cluster_.uplink(node), to);
    }

    sim::Simulator sim_;
    cluster::ClusterConfig cfg_;
    cluster::Cluster cluster_;
    std::shared_ptr<const ec::ErasureCode> code_;
    cluster::StripeTable stripes_;
    repair::RepairExecutor executor_;
    repair::BandwidthMonitor monitor_;
    HedgedReadManager manager_;
};

TEST(HedgedRead, HealthyClusterCompletesWithoutHedging)
{
    HedgeRig rig;
    rig.manager_.enqueue({rig.lose(0, 0), rig.lose(1, 2)});
    rig.sim_.run(1000.0);
    EXPECT_TRUE(rig.manager_.finished());
    EXPECT_EQ(rig.manager_.chunksRepaired(), 2);
    EXPECT_EQ(rig.manager_.chunksUnrecoverable(), 0);
    // No straggler: every attempt lands within its own estimate, so
    // no timer expires.
    EXPECT_EQ(rig.manager_.hedgesIssued(), 0);
    EXPECT_EQ(rig.manager_.hedgeWins(), 0);
    EXPECT_EQ(rig.manager_.latencies().count(), 2u);
    EXPECT_GT(rig.manager_.finishTime(), rig.manager_.startTime());
    // Repairs are recorded against the stripe map.
    EXPECT_TRUE(rig.stripes_.lostChunks().empty());
}

TEST(HedgedRead, StragglerTriggersWinningHedge)
{
    HedgeRig rig;
    auto fc = rig.lose(0, 0);
    // The primary reads the lowest-index surviving chunks; make the
    // first helper crawl at 1% so the attempt stalls far past its
    // (capacity-based) estimate.
    rig.throttleUplink(rig.firstHelperNode(0), 1.0);
    rig.manager_.enqueue({fc});
    rig.sim_.run(2000.0);
    EXPECT_TRUE(rig.manager_.finished());
    EXPECT_EQ(rig.manager_.chunksRepaired(), 1);
    EXPECT_EQ(rig.manager_.hedgesIssued(), 1);
    // The hedge avoids the laggard helper, so it finishes at full
    // speed and beats the crawling primary.
    EXPECT_EQ(rig.manager_.hedgeWins(), 1);
    EXPECT_TRUE(rig.stripes_.lostChunks().empty());
}

TEST(HedgedRead, LosingAttemptIsCanceledSilently)
{
    HedgeRig rig;
    auto fc = rig.lose(0, 0);
    rig.throttleUplink(rig.firstHelperNode(0), 1.0);
    rig.manager_.enqueue({fc});
    rig.sim_.run(2000.0);
    ASSERT_EQ(rig.manager_.hedgeWins(), 1);
    // Cancellation is a scheduling decision, not a failure: no
    // crash re-plans, nothing unrecoverable, and only the winning
    // attempt counts as a completed chunk in the executor.
    EXPECT_EQ(rig.manager_.crashReplans(), 0);
    EXPECT_EQ(rig.manager_.chunksUnrecoverable(), 0);
    EXPECT_EQ(rig.executor_.completedChunks(), 1);
}

TEST(HedgedRead, NoHedgeBaselineRidesOutTheStraggler)
{
    auto cfg = HedgeRig::makeHedgeConfig();
    cfg.hedge = false;
    HedgeRig hedged, plain(cfg);
    auto fc_h = hedged.lose(0, 0);
    auto fc_p = plain.lose(0, 0);
    hedged.throttleUplink(hedged.firstHelperNode(0), 1.0);
    plain.throttleUplink(plain.firstHelperNode(0), 1.0);
    hedged.manager_.enqueue({fc_h});
    plain.manager_.enqueue({fc_p});
    hedged.sim_.run(5000.0);
    plain.sim_.run(5000.0);
    ASSERT_TRUE(hedged.manager_.finished());
    ASSERT_TRUE(plain.manager_.finished());
    EXPECT_EQ(plain.manager_.hedgesIssued(), 0);
    // Identical scenario; only the hedge separates the two runs.
    EXPECT_LT(hedged.manager_.finishTime(),
              plain.manager_.finishTime());
}

TEST(HedgedRead, HelperCrashReplansAndRecovers)
{
    HedgeRig rig;
    auto fc = rig.lose(0, 0);
    rig.manager_.enqueue({fc});
    // Kill the first helper shortly into the transfer; the manager
    // must abort, back off, and re-plan around the dead node — and
    // absorb the crashed node's own chunks as new reads.
    NodeId victim = rig.firstHelperNode(0);
    int extra = -1;
    rig.sim_.scheduleAfter(0.5, [&rig, victim, &extra]() {
        rig.cluster_.markNodeDown(victim);
        auto lost = rig.stripes_.failNode(victim);
        extra = static_cast<int>(lost.size());
        rig.manager_.onNodeCrash(victim, lost);
    });
    rig.sim_.run(5000.0);
    ASSERT_GE(extra, 0);
    EXPECT_TRUE(rig.manager_.finished());
    EXPECT_GE(rig.manager_.crashReplans(), 1);
    EXPECT_EQ(rig.manager_.chunksRepaired(), 1 + extra);
    EXPECT_EQ(rig.manager_.chunksUnrecoverable(), 0);
}

TEST(HedgedRead, ShortStripeIsUnrecoverable)
{
    HedgeRig rig;
    // RS(4,2): three erasures exceed the parity budget.
    auto fc = rig.lose(2, 0);
    rig.lose(2, 1);
    rig.lose(2, 2);
    rig.manager_.enqueue({fc});
    rig.sim_.run(100.0);
    EXPECT_TRUE(rig.manager_.finished());
    EXPECT_EQ(rig.manager_.chunksRepaired(), 0);
    EXPECT_EQ(rig.manager_.chunksUnrecoverable(), 1);
    EXPECT_EQ(rig.manager_.hedgesIssued(), 0);
}

} // namespace
} // namespace traffic
} // namespace chameleon
