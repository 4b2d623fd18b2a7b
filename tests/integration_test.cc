/**
 * @file
 * Cross-module integration and property tests: the full experiment
 * pipeline across every (algorithm x code) cell, metadata consistency
 * after repair, executor behavior under aggressive concurrent
 * re-tuning + stragglers (the exactly-once invariant is asserted
 * internally on every run), slot-capacity sweeps, and determinism of
 * the whole simulation under a fixed seed.
 */

#include <gtest/gtest.h>

#include "ec/factory.hh"
#include "runtime/experiment.hh"

namespace chameleon {
namespace runtime {
namespace {

ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg;
    cfg.cluster.numNodes = 16;
    cfg.cluster.numClients = 2;
    cfg.code = ec::makeRs(6, 3);
    cfg.exec.chunkSize = 16 * units::MiB;
    cfg.exec.sliceSize = 4 * units::MiB;
    cfg.chunksToRepair = 5;
    cfg.warmup = 6.0;
    cfg.chameleon.tPhase = 10.0;
    cfg.simTimeCap = 5000.0;
    return cfg;
}

struct Cell
{
    Algorithm algorithm;
    std::shared_ptr<const ec::ErasureCode> code;
};

class FullMatrixTest : public ::testing::TestWithParam<int>
{
};

TEST(FullMatrix, EveryAlgorithmEveryCodeCompletes)
{
    std::vector<std::shared_ptr<const ec::ErasureCode>> codes = {
        ec::makeRs(6, 3), ec::makeLrc(6, 2, 2), ec::makeButterfly()};
    std::vector<Algorithm> algos = {
        Algorithm::kCr,        Algorithm::kPpr,
        Algorithm::kEcpipe,    Algorithm::kRbCr,
        Algorithm::kRbEcpipe,  Algorithm::kEtrp,
        Algorithm::kChameleon, Algorithm::kChameleonIo};
    for (const auto &code : codes) {
        for (auto algo : algos) {
            auto cfg = tinyConfig();
            cfg.code = code;
            cfg.trace = traffic::ycsbA();
            cfg.trace->workersPerClient = 3;
            auto r = runExperiment(algo, cfg);
            EXPECT_EQ(r.chunksRepaired, cfg.chunksToRepair)
                << algorithmName(algo) << " / " << code->name();
            EXPECT_GT(r.repairThroughput, 0.0);
        }
    }
}

TEST(WideStripe, Rs40_8On60NodesRepairsOnTreesAndDags)
{
    // Each repair reads 40 helpers: past the 31-source contribution
    // masks the executor once had, inside the 63 it allows. CR runs
    // a star plan, Chameleon its own trees, and the chain override a
    // repair DAG; every lost chunk must be accounted for.
    for (auto [algo, topo] :
         {std::pair{Algorithm::kCr, dag::RepairTopology::kAuto},
          std::pair{Algorithm::kChameleon, dag::RepairTopology::kAuto},
          std::pair{Algorithm::kCr, dag::RepairTopology::kChain}}) {
        auto cfg = tinyConfig();
        cfg.cluster.numNodes = 60;
        cfg.code = ec::makeRs(40, 8);
        cfg.topology.kind = topo;
        auto r = runExperiment(algo, cfg);
        EXPECT_EQ(r.chunksRepaired + r.chunksUnrecoverable,
                  cfg.chunksToRepair)
            << algorithmName(algo) << " / "
            << dag::topologyKey(cfg.topology);
        EXPECT_EQ(r.chunksUnrecoverable, 0);
        EXPECT_GT(r.repairThroughput, 0.0);
    }
}

TEST(Determinism, SameSeedSameResult)
{
    auto cfg = tinyConfig();
    cfg.trace = traffic::ycsbA();
    cfg.trace->workersPerClient = 3;
    auto a = runExperiment(Algorithm::kChameleon, cfg);
    auto b = runExperiment(Algorithm::kChameleon, cfg);
    EXPECT_DOUBLE_EQ(a.repairThroughput, b.repairThroughput);
    EXPECT_DOUBLE_EQ(a.p99LatencyMs, b.p99LatencyMs);
    EXPECT_EQ(a.phases, b.phases);
    EXPECT_EQ(a.retunes, b.retunes);
    EXPECT_EQ(a.reorders, b.reorders);
}

TEST(Determinism, DifferentSeedsDiffer)
{
    auto cfg = tinyConfig();
    cfg.trace = traffic::ycsbA();
    cfg.trace->workersPerClient = 3;
    auto a = runExperiment(Algorithm::kCr, cfg);
    cfg.seed = 999;
    auto b = runExperiment(Algorithm::kCr, cfg);
    EXPECT_NE(a.repairThroughput, b.repairThroughput);
}

TEST(SlotSweep, UploadSlotCapacityScalesThroughput)
{
    // More recovery streams per node -> repair can only get faster
    // (on an idle cluster).
    double prev = 0.0;
    for (int slots : {1, 2, 4}) {
        auto cfg = tinyConfig();
        cfg.exec.nodeUploadSlots = slots;
        cfg.chunksToRepair = 10;
        auto r = runExperiment(Algorithm::kCr, cfg);
        EXPECT_GE(r.repairThroughput, prev * 0.95)
            << "slots=" << slots;
        prev = r.repairThroughput;
    }
}

TEST(RelayOverhead, PenalizesChainsNotStars)
{
    // With zero overhead chains beat stars on an idle cluster (their
    // classical advantage); a large overhead must invert that.
    auto base = tinyConfig();
    base.chunksToRepair = 10;

    auto with = [&](double ovh, Algorithm algo) {
        auto cfg = base;
        cfg.exec.relayOverheadPerMiB = ovh;
        return runExperiment(algo, cfg).repairThroughput;
    };
    double cr_free = with(0.0, Algorithm::kCr);
    double chain_free = with(0.0, Algorithm::kEcpipe);
    double cr_heavy = with(0.05, Algorithm::kCr);
    double chain_heavy = with(0.05, Algorithm::kEcpipe);
    EXPECT_GT(chain_free, cr_free * 0.9);
    EXPECT_GT(cr_heavy, chain_heavy);
    // CR itself is essentially overhead-free.
    EXPECT_NEAR(cr_heavy, cr_free, 0.2 * cr_free);
}

TEST(Straggler, ChameleonRecoversFasterThanEtrp)
{
    // A severe mid-repair straggler on a participating node: full
    // ChameleonEC (with SAR) must not be slower than ETRP.
    auto run = [&](Algorithm algo) {
        auto cfg = tinyConfig();
        cfg.chunksToRepair = 8;
        cfg.chameleon.checkPeriod = 0.5;
        cfg.chameleon.stragglerSlack = 1.0;
        cfg.stragglers.push_back(StragglerEvent{
            0.5, kInvalidNode, 0.02, 60.0, true, true});
        return runExperiment(algo, cfg);
    };
    auto etrp = run(Algorithm::kEtrp);
    auto cham = run(Algorithm::kChameleon);
    EXPECT_EQ(cham.chunksRepaired, 8);
    EXPECT_GE(cham.repairThroughput, etrp.repairThroughput * 0.9);
}

TEST(Metadata, StaysConsistentThroughConcurrentRepairs)
{
    // After a multi-node repair, every stripe must again span
    // distinct live nodes with no lost chunks.
    auto cfg = tinyConfig();
    cfg.failedNodes = 2;
    cfg.chunksToRepair = 8;
    auto r = runExperiment(Algorithm::kChameleon, cfg);
    EXPECT_GE(r.chunksRepaired, 8);
    // The harness validates relocation internally (relocate panics
    // on double-occupancy); reaching here means it held.
}

TEST(Timeline, ConservesRepairedBytes)
{
    auto cfg = tinyConfig();
    cfg.chunksToRepair = 6;
    auto r = runExperiment(Algorithm::kPpr, cfg);
    Rate total = 0;
    for (Rate x : r.throughputTimeline)
        total += x * r.timelinePeriod;
    EXPECT_NEAR(total, 6 * cfg.exec.chunkSize, cfg.exec.chunkSize);
}

} // namespace
} // namespace runtime
} // namespace chameleon
