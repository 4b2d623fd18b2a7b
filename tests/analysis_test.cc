/**
 * @file
 * Tests for the analysis layer: the Figure 2 reliability model and
 * the end-to-end experiment harness (which every bench binary uses).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "analysis/reliability.hh"
#include "ec/factory.hh"
#include "runtime/experiment.hh"

namespace chameleon {
namespace analysis {
namespace {

using namespace runtime;

TEST(Reliability, FailureProbabilityShape)
{
    ReliabilityModel model;
    EXPECT_DOUBLE_EQ(model.failureProbability(0.0), 0.0);
    // Monotonic in duration.
    EXPECT_LT(model.failureProbability(3600.0),
              model.failureProbability(86400.0));
    // One expected lifetime -> 1 - 1/e.
    double theta_sec = 10.0 * 365.25 * 24 * 3600;
    EXPECT_NEAR(model.failureProbability(theta_sec),
                1.0 - std::exp(-1.0), 1e-9);
}

TEST(Reliability, DataLossDecreasesWithThroughput)
{
    ReliabilityModel model; // k=10, m=4, 96 TB — the Fig. 2 setup
    double slow = model.dataLossProbability(10e6);    // 10 MB/s
    double mid = model.dataLossProbability(100e6);    // 100 MB/s
    double fast = model.dataLossProbability(1000e6);  // 1 GB/s
    EXPECT_GT(slow, mid);
    EXPECT_GT(mid, fast);
    EXPECT_GT(slow, 0.0);
    EXPECT_LT(fast, 1e-6);
}

TEST(Reliability, MoreParityLowersLoss)
{
    ReliabilityModel weak;
    weak.k = 10;
    weak.m = 2;
    ReliabilityModel strong;
    strong.k = 10;
    strong.m = 4;
    EXPECT_GT(weak.dataLossProbability(50e6),
              strong.dataLossProbability(50e6));
}

/** Small, fast harness config shared by the smoke tests. */
ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.cluster.numNodes = 16;
    cfg.cluster.numClients = 2;
    cfg.cluster.uplinkBw = 200 * units::MBps;
    cfg.cluster.downlinkBw = 200 * units::MBps;
    cfg.cluster.diskBw = 500 * units::MBps;
    cfg.code = ec::makeRs(6, 3);
    cfg.exec.chunkSize = 16 * units::MiB;
    cfg.exec.sliceSize = 4 * units::MiB;
    cfg.chunksToRepair = 6;
    cfg.warmup = 6.0;
    cfg.chameleon.tPhase = 10.0;
    cfg.simTimeCap = 4000.0;
    return cfg;
}

TEST(Experiment, NoForegroundAllAlgorithmsComplete)
{
    auto cfg = smallConfig();
    for (auto algo :
         {Algorithm::kCr, Algorithm::kPpr, Algorithm::kEcpipe,
          Algorithm::kChameleon}) {
        auto result = runExperiment(algo, cfg);
        EXPECT_EQ(result.chunksRepaired, 6) << algorithmName(algo);
        EXPECT_GT(result.repairThroughput, 0.0);
        EXPECT_GT(result.repairTime, 0.0);
        EXPECT_DOUBLE_EQ(result.p99LatencyMs, 0.0); // no foreground
    }
}

TEST(Experiment, WithForegroundReportsLatency)
{
    auto cfg = smallConfig();
    auto profile = traffic::ycsbA();
    profile.workersPerClient = 4;
    cfg.trace = profile;
    auto result = runExperiment(Algorithm::kChameleon, cfg);
    EXPECT_EQ(result.chunksRepaired, 6);
    EXPECT_GT(result.p99LatencyMs, 0.0);
    EXPECT_GE(result.p99LatencyMs, result.meanLatencyMs);
    // Link loads were recorded.
    ASSERT_EQ(result.uplinks.size(), 16u);
    Rate total_repair = 0;
    for (const auto &l : result.uplinks)
        total_repair += l.repairMean;
    EXPECT_GT(total_repair, 0.0);
}

TEST(Experiment, RepairBoostVariantsComplete)
{
    auto cfg = smallConfig();
    for (auto algo : {Algorithm::kRbCr, Algorithm::kRbEcpipe}) {
        auto result = runExperiment(algo, cfg);
        EXPECT_EQ(result.chunksRepaired, 6) << algorithmName(algo);
    }
}

TEST(Experiment, EtrpDisablesSar)
{
    auto cfg = smallConfig();
    auto result = runExperiment(Algorithm::kEtrp, cfg);
    EXPECT_EQ(result.retunes, 0);
    EXPECT_EQ(result.reorders, 0);
    EXPECT_EQ(result.chunksRepaired, 6);
}

TEST(Experiment, BoundedTraceReportsTraceTime)
{
    auto cfg = smallConfig();
    auto profile = traffic::ycsbA();
    profile.workersPerClient = 2;
    profile.idleMean = 0.0;
    cfg.trace = profile;
    cfg.requestsPerClient = 60;
    auto baseline = runExperiment(Algorithm::kNone, cfg);
    EXPECT_GT(baseline.traceTime, 0.0);
    auto loaded = runExperiment(Algorithm::kCr, cfg);
    EXPECT_GT(loaded.traceTime, 0.0);
    // Repair competes with the trace: execution time inflates.
    EXPECT_GE(loaded.traceTime, baseline.traceTime * 0.99);
}

TEST(Experiment, StragglerInjection)
{
    auto cfg = smallConfig();
    cfg.stragglers.push_back(StragglerEvent{2.0, 3, 0.05, 8.0,
                                            true, true});
    cfg.chameleon.checkPeriod = 1.0;
    cfg.chameleon.stragglerSlack = 1.0;
    auto result = runExperiment(Algorithm::kChameleon, cfg);
    EXPECT_EQ(result.chunksRepaired, 6);
}

TEST(Experiment, MultiNodeFailure)
{
    auto cfg = smallConfig();
    cfg.failedNodes = 2;
    auto result = runExperiment(Algorithm::kChameleon, cfg);
    EXPECT_GE(result.chunksRepaired, 6);
    EXPECT_GT(result.repairThroughput, 0.0);
}

TEST(Experiment, TimelineRecorded)
{
    auto cfg = smallConfig();
    auto result = runExperiment(Algorithm::kCr, cfg);
    ASSERT_FALSE(result.throughputTimeline.empty());
    Rate total = 0;
    for (Rate r : result.throughputTimeline)
        total += r * result.timelinePeriod;
    EXPECT_NEAR(total, 6 * cfg.exec.chunkSize, cfg.exec.chunkSize);
}

TEST(Experiment, HookCanSwitchProfiles)
{
    auto cfg = smallConfig();
    auto profile = traffic::ycsbA();
    profile.workersPerClient = 2;
    cfg.trace = profile;
    int switches = 0;
    ExperimentHooks hooks;
    hooks.onSample = [&](SimTime, traffic::ForegroundDriver *driver) {
        if (driver && switches == 0) {
            driver->switchProfile(traffic::facebookEtc());
            ++switches;
        }
    };
    auto result = runExperiment(Algorithm::kChameleon, cfg, hooks);
    EXPECT_EQ(switches, 1);
    EXPECT_EQ(result.chunksRepaired, 6);
}

TEST(Experiment, ChameleonIoUsesStorageDimension)
{
    auto cfg = smallConfig();
    cfg.cluster.diskBw = 50 * units::MBps; // disk-bottlenecked
    auto result = runExperiment(Algorithm::kChameleonIo, cfg);
    EXPECT_EQ(result.chunksRepaired, 6);
}

} // namespace
} // namespace analysis
} // namespace chameleon
