/**
 * @file
 * Tests for BandwidthMonitor measurement quality: noise-free
 * estimates converge to the true residual of a steady foreground
 * load, noisy estimates stay within the advertised error bound, and
 * estimates are stale between samples (the imperfection the
 * straggler-aware re-scheduler absorbs).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "repair/monitor.hh"

namespace chameleon {
namespace repair {
namespace {

/** Small cluster with a throttled client downlink so a foreground
 * flow occupies a known fraction of a node uplink. */
class MonitorRig
{
  public:
    MonitorRig()
    {
        cluster::ClusterConfig cfg;
        cfg.numNodes = 6;
        cfg.numClients = 1;
        cfg.uplinkBw = 100.0;
        cfg.downlinkBw = 100.0;
        cfg.diskBw = 1000.0;
        cluster_ = std::make_unique<cluster::Cluster>(sim_, cfg);
        // The client ingests at 40 B/s, so a single read flow holds
        // the serving node's uplink at exactly 40 B/s.
        cluster_->network().setCapacity(
            cluster_->clientDownlink(0), 40.0);
    }

    /** Starts a long-lived steady read from node 2. */
    void startSteadyLoad()
    {
        cluster_->network().startFlow(
            {cluster_->uplink(2), cluster_->clientDownlink(0)},
            1e9, sim::FlowTag::kForeground, nullptr);
    }

    sim::Simulator sim_;
    std::unique_ptr<cluster::Cluster> cluster_;
};

TEST(Monitor, NoiseFreeEstimateConverges)
{
    MonitorRig rig;
    BandwidthMonitor monitor(*rig.cluster_, 2.0);
    EXPECT_DOUBLE_EQ(monitor.measurementNoise(), 0.0);
    rig.startSteadyLoad();
    monitor.start();
    rig.sim_.run(21.0);
    EXPECT_GE(monitor.sampleCount(), 10);
    // Node 2's uplink carries exactly 40 of 100; every sample after
    // the first measures it exactly.
    EXPECT_NEAR(monitor.residualUplink(2), 60.0, 1e-6);
    // Unloaded nodes look fully idle.
    EXPECT_NEAR(monitor.residualUplink(0), 100.0, 1e-6);
    monitor.stop();
}

TEST(Monitor, NoisyEstimateStaysWithinBound)
{
    MonitorRig rig;
    BandwidthMonitor monitor(*rig.cluster_, 2.0);
    const double f = 0.2;
    monitor.setMeasurementNoise(f, 1234);
    EXPECT_DOUBLE_EQ(monitor.measurementNoise(), f);
    rig.startSteadyLoad();
    monitor.start();

    // Sample for a while, checking the estimate after every period:
    // true usage is 40, so the estimate must stay within f * 40 of
    // the true residual of 60.
    double worst = 0.0;
    bool saw_error = false;
    for (int i = 0; i < 50; ++i) {
        rig.sim_.run(rig.sim_.now() + 2.0);
        double err = std::abs(monitor.residualUplink(2) - 60.0);
        worst = std::max(worst, err);
        if (err > 1e-9)
            saw_error = true;
    }
    EXPECT_LE(worst, f * 40.0 + 1e-6);
    // The noise must actually perturb the estimate.
    EXPECT_TRUE(saw_error);
    // Idle links are unaffected (noise scales usage, and 0 usage
    // stays 0).
    EXPECT_NEAR(monitor.residualUplink(0), 100.0, 1e-6);
    monitor.stop();
}

TEST(Monitor, NoiseIsDeterministicPerSeed)
{
    auto run_once = [](uint64_t seed) {
        MonitorRig rig;
        BandwidthMonitor monitor(*rig.cluster_, 2.0);
        monitor.setMeasurementNoise(0.3, seed);
        rig.startSteadyLoad();
        monitor.start();
        rig.sim_.run(9.0);
        double residual = monitor.residualUplink(2);
        monitor.stop();
        return residual;
    };
    EXPECT_DOUBLE_EQ(run_once(7), run_once(7));
    EXPECT_NE(run_once(7), run_once(8));
}

TEST(Monitor, EstimatesAreStaleBetweenSamples)
{
    MonitorRig rig;
    BandwidthMonitor monitor(*rig.cluster_, 5.0);
    monitor.start();
    // Let one idle sample land at t=5, then start the load at t=6.
    rig.sim_.run(6.0);
    rig.startSteadyLoad();
    rig.sim_.run(9.0);
    // The load is live but unobserved until the t=10 sample.
    EXPECT_NEAR(monitor.residualUplink(2), 100.0, 1e-6);
    rig.sim_.run(12.0);
    // Sampled at t=10: 4 s of load spread over the 5 s window.
    EXPECT_LT(monitor.residualUplink(2), 100.0 - 20.0);
    monitor.stop();
}

TEST(Monitor, RestartWithinOnePeriodKeepsOneSampleChain)
{
    // A blackout shorter than the period stops and restarts the
    // monitor while the sample event scheduled before stop() is
    // still pending. That stale event must not start a second
    // chain: after the restart at t=6, samples land at 11, 16, 21
    // and 26 only (the stale one at 10 is dropped).
    MonitorRig rig;
    BandwidthMonitor monitor(*rig.cluster_, 5.0);
    monitor.start();
    rig.sim_.run(6.0);
    EXPECT_EQ(monitor.sampleCount(), 1);
    monitor.stop();
    monitor.start();
    rig.sim_.run(26.5);
    EXPECT_EQ(monitor.sampleCount(), 5);
    monitor.stop();
}

TEST(Monitor, RejectsBadNoiseFraction)
{
    MonitorRig rig;
    BandwidthMonitor monitor(*rig.cluster_, 2.0);
    EXPECT_DEATH(monitor.setMeasurementNoise(-0.1, 1), "noise");
    EXPECT_DEATH(monitor.setMeasurementNoise(1.0, 1), "noise");
}

} // namespace
} // namespace repair
} // namespace chameleon
