/**
 * @file
 * End-to-end data-integrity suite:
 *  - checksum kernels: CRC32C/xxHash64 published test vectors,
 *    chained-region equivalence, and cross-ISA identity (every
 *    compiled variant must agree with the scalar oracle on random
 *    buffers and split points);
 *  - SliceChecksums: per-slice corruption localization;
 *  - corrupt-helper exclusion: a verify-on-read rejection aborts the
 *    repair and the re-plan excludes the corrupt source, at the ec
 *    layer (byte-identical oracle via evaluatePlan) and through the
 *    executor/session abort path;
 *  - scrub differential: every injected bit-rot event is detected
 *    within one scrub epoch, re-repaired, and the sweep stays
 *    -j1/-jN byte-identical with scrubbing enabled.
 */

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/scrub_scanner.hh"
#include "cluster/stripe_table.hh"
#include "ec/checksum.hh"
#include "ec/factory.hh"
#include "ec/rs_code.hh"
#include "repair/executor.hh"
#include "repair/plan.hh"
#include "repair/session.hh"
#include "repair/strategies.hh"
#include "runtime/runtime.hh"
#include "runtime/sweep.hh"
#include "util/rng.hh"

namespace chameleon {
namespace {

namespace checksum = ec::checksum;

// ------------------------------------------------ checksum kernels

TEST(IntegrityChecksum, Crc32cPublishedVectors)
{
    // RFC 3720 B.4 check value: CRC32C("123456789") = 0xE3069283.
    const char digits[] = "123456789";
    EXPECT_EQ(checksum::crc32c(digits, 9), 0xE3069283u);
    EXPECT_EQ(checksum::crc32c("", 0), 0u);
    // 32 bytes of zeros (iSCSI test pattern).
    uint8_t zeros[32] = {};
    EXPECT_EQ(checksum::crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
    uint8_t ones[32];
    std::fill(std::begin(ones), std::end(ones), uint8_t{0xFF});
    EXPECT_EQ(checksum::crc32c(ones, sizeof(ones)), 0x62A8AB43u);
}

TEST(IntegrityChecksum, ChainedRegionsMatchOneShot)
{
    Rng rng(11);
    std::vector<uint8_t> buf(4096);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng.below(256));
    const uint32_t whole = checksum::crc32c(buf.data(), buf.size());
    for (std::size_t split : {std::size_t{0}, std::size_t{1},
                              std::size_t{7}, std::size_t{64},
                              std::size_t{4095}, buf.size()}) {
        const uint32_t head = checksum::crc32c(buf.data(), split);
        EXPECT_EQ(checksum::crc32c(buf.data() + split,
                                   buf.size() - split, head),
                  whole)
            << "split at " << split;
    }
}

TEST(IntegrityChecksum, XxHash64PublishedVectors)
{
    // Reference values from the xxHash spec test suite.
    EXPECT_EQ(checksum::xxhash64("", 0), 0xEF46DB3751D8E999ull);
    EXPECT_EQ(checksum::xxhash64("", 0, /*seed=*/1),
              0xD5AFBA1336A3BE4Bull);
    // Determinism + sensitivity: one flipped bit moves the hash.
    Rng rng(13);
    std::vector<uint8_t> buf(513);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng.below(256));
    const uint64_t h = checksum::xxhash64(buf.data(), buf.size());
    EXPECT_EQ(checksum::xxhash64(buf.data(), buf.size()), h);
    buf[200] ^= 0x01;
    EXPECT_NE(checksum::xxhash64(buf.data(), buf.size()), h);
}

TEST(IntegrityChecksum, EveryIsaMatchesScalarOracle)
{
    // Cross-ISA identity on random buffers of awkward lengths, with
    // random chain split points — the scalar bitwise kernel is the
    // oracle (the forced-scalar CI leg runs this same test with only
    // the scalar variant compiled in, pinning the vectors above).
    const auto &scalar = checksum::detail::scalarKernels();
    Rng rng(17);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t len = rng.below(1500);
        std::vector<uint8_t> buf(len);
        for (auto &b : buf)
            b = static_cast<uint8_t>(rng.below(256));
        const uint32_t want =
            scalar.crc32c(0, buf.data(), buf.size());
        const std::size_t split = len > 0 ? rng.below(len + 1) : 0;
        for (auto isa : checksum::detail::availableIsas()) {
            const auto &k = checksum::detail::kernels(isa);
            EXPECT_EQ(k.crc32c(0, buf.data(), buf.size()), want)
                << checksum::detail::isaName(isa) << " len " << len;
            const uint32_t head = k.crc32c(0, buf.data(), split);
            EXPECT_EQ(k.crc32c(head, buf.data() + split, len - split),
                      want)
                << checksum::detail::isaName(isa) << " split "
                << split;
        }
    }
}

TEST(IntegrityChecksum, SliceChecksumsLocalizeCorruption)
{
    Rng rng(19);
    ec::Buffer payload(1000);
    for (auto &b : payload)
        b = static_cast<uint8_t>(rng.below(256));
    const auto sums = checksum::SliceChecksums::compute(payload, 256);
    EXPECT_EQ(sums.slices.size(), 4u); // 256*3 + 232
    EXPECT_TRUE(sums.verify(payload));
    EXPECT_EQ(sums.firstMismatch(payload), -1);

    for (std::size_t at : {std::size_t{0}, std::size_t{255},
                           std::size_t{256}, std::size_t{700},
                           std::size_t{999}}) {
        auto rotted = payload;
        rotted[at] ^= 0x40;
        EXPECT_EQ(sums.firstMismatch(rotted),
                  static_cast<int>(at / 256))
            << "flip at " << at;
        EXPECT_FALSE(sums.verify(rotted));
    }
    // Length mismatch fails slice 0.
    ec::Buffer shorter(999);
    EXPECT_EQ(sums.firstMismatch(shorter), 0);
    // Degenerate slice size covers everything in one slice.
    const auto one = checksum::SliceChecksums::compute(payload, 0);
    EXPECT_EQ(one.slices.size(), 1u);
    EXPECT_TRUE(one.verify(payload));
}

// ------------------------------------- corrupt helpers, byte level

ec::Buffer
randomChunk(Rng &rng, std::size_t size)
{
    ec::Buffer b(size);
    for (auto &v : b)
        v = static_cast<uint8_t>(rng.below(256));
    return b;
}

TEST(IntegrityDifferential, ReplanWithoutCorruptHelperIsByteExact)
{
    // The end-to-end story at the byte level: a bit-rotted helper
    // poisons the reconstruction; its per-slice checksums catch it;
    // a re-plan from the remaining survivors reconstructs the chunk
    // byte-identically to the pristine oracle.
    ec::RsCode code(4, 3);
    Rng rng(23);
    std::vector<ec::Buffer> data;
    for (int i = 0; i < code.k(); ++i)
        data.push_back(randomChunk(rng, 96));
    auto parity = code.encode(data);
    std::vector<ec::Buffer> pristine = data;
    for (auto &p : parity)
        pristine.push_back(std::move(p));

    const ChunkIndex failed = 2;
    const ec::Buffer oracle = pristine[failed];

    auto makePlan = [&](const std::vector<ChunkIndex> &helpers) {
        auto spec = code.specFor(failed, helpers);
        EXPECT_TRUE(spec.has_value());
        std::vector<repair::PlanSource> sources;
        NodeId node = 0;
        for (const auto &read : spec->reads) {
            repair::PlanSource src;
            src.node = node++;
            src.chunk = read.helper;
            src.coeff = read.coeff;
            src.fraction = read.fraction;
            src.parent = repair::kToDestination;
            sources.push_back(src);
        }
        return repair::buildStarPlan(0, failed, 100,
                                     std::move(sources), true);
    };

    // Sidecars computed while the data was clean.
    std::vector<checksum::SliceChecksums> sums;
    for (const auto &chunk : pristine)
        sums.push_back(checksum::SliceChecksums::compute(chunk, 32));

    // Rot helper chunk 1 after checksumming (slice 2 of 3).
    auto rotted = pristine;
    rotted[1][70] ^= 0x08;

    // A plan over helpers {0,1,3,4} silently folds the rot in.
    auto bad = makePlan({0, 1, 3, 4});
    EXPECT_NE(repair::evaluatePlan(bad, rotted), oracle);
    // Verify-on-read localizes the corruption to helper 1, slice 2.
    EXPECT_TRUE(sums[0].verify(rotted[0]));
    EXPECT_EQ(sums[1].firstMismatch(rotted[1]), 2);
    // Re-plan excluding the corrupt helper: byte-identical repair.
    auto good = makePlan({0, 3, 4, 5});
    for (const auto &src : good.sources)
        EXPECT_NE(src.chunk, 1);
    EXPECT_EQ(repair::evaluatePlan(good, rotted), oracle);
}

// ------------------------------- corrupt helpers, executor/session

TEST(IntegrityExecutor, CorruptHelperAbortsAndReplansWithoutIt)
{
    sim::Simulator sim;
    cluster::ClusterConfig ccfg;
    ccfg.numNodes = 14;
    ccfg.numClients = 0;
    ccfg.uplinkBw = ccfg.downlinkBw = 100.0;
    ccfg.diskBw = 300.0;
    cluster::Cluster cluster(sim, ccfg);
    auto code = ec::makeRs(4, 3);
    cluster::StripeTable stripes(code, ccfg.numNodes);
    Rng rng(31);
    stripes.createStripes(4, rng);
    repair::ExecutorConfig ecfg;
    ecfg.chunkSize = 64.0;
    ecfg.sliceSize = 8.0;
    ecfg.relayOverheadPerMiB = 0.0;
    repair::RepairExecutor exec(cluster, ecfg);

    const cluster::FailedChunk lost{0, 1};
    stripes.markLost(lost.stripe, lost.chunk);

    // The planner corrupts the first helper of its *first* plan, so
    // the initial launch is guaranteed to read a corrupt source
    // (corruption is invisible to planning, as in production).
    ChunkIndex corruptChunk = -1;
    std::vector<std::vector<ChunkIndex>> plannedHelpers;
    Rng plan_rng(37);
    repair::RepairSession session(
        stripes, exec,
        [&](const cluster::FailedChunk &fc,
            const std::vector<NodeId> &reserved) {
            auto plan = repair::makeBaselinePlan(
                stripes, fc, repair::Topology::kStar, reserved,
                plan_rng);
            std::vector<ChunkIndex> helpers;
            for (const auto &src : plan.sources)
                helpers.push_back(src.chunk);
            plannedHelpers.push_back(helpers);
            if (corruptChunk < 0) {
                corruptChunk = plan.sources.front().chunk;
                stripes.markCorrupt(fc.stripe, corruptChunk);
            }
            return plan;
        });

    int rejects = 0;
    repair::RepairExecutor::IntegrityHooks ih;
    ih.verifySource = [&](StripeId stripe, ChunkIndex chunk,
                          NodeId) {
        if (!stripes.chunkCorrupt(stripe, chunk))
            return true;
        ++rejects;
        // Promote to lost and queue the rotted chunk itself (the
        // runtime routes this through ScrubScanner::detect()).
        stripes.markLost(stripe, chunk);
        const cluster::FailedChunk fc{stripe, chunk};
        sim.scheduleAfter(0.0, [&session, fc] {
            session.enqueue({fc});
        });
        return false;
    };
    exec.setIntegrityHooks(std::move(ih));

    session.enqueue({lost});
    sim.run(2000.0);

    EXPECT_TRUE(session.finished());
    EXPECT_EQ(rejects, 1);
    // Both the original chunk and the rotted helper got repaired.
    EXPECT_EQ(session.chunksRepaired(), 2);
    EXPECT_EQ(session.chunksUnrecoverable(), 0);
    // The re-plan excluded the corrupt source (it is lost now, and
    // the planner draws helpers from live chunks only).
    ASSERT_GE(plannedHelpers.size(), 2u);
    const auto &replan = plannedHelpers[1];
    EXPECT_EQ(std::count(replan.begin(), replan.end(),
                         corruptChunk),
              0);
    // markRepaired cleared the corrupt flag on the rewritten chunk.
    EXPECT_FALSE(stripes.chunkCorrupt(lost.stripe, corruptChunk));
    EXPECT_EQ(stripes.corruptCount(), 0);
}

// ------------------------------------------- scrub scanner (unit)

TEST(ScrubScanner, DetectsCorruptionAndClassifiesTier)
{
    sim::Simulator sim;
    cluster::ClusterConfig ccfg;
    ccfg.numNodes = 14;
    ccfg.numClients = 0;
    cluster::Cluster cluster(sim, ccfg);
    auto code = ec::makeRs(4, 3);
    cluster::StripeTable stripes(code, ccfg.numNodes);
    Rng rng(41);
    stripes.createStripes(2, rng);

    cluster::ScrubConfig scfg;
    scfg.enabled = true;
    scfg.rate = 1024.0; // 16 chunk-reads per tick at 64 B chunks
    scfg.riskMargin = 1;
    cluster::ScrubScanner scrub(cluster, stripes, 64.0, scfg);

    std::vector<std::pair<cluster::FailedChunk, cluster::RepairTier>>
        detected;
    scrub.setOnDetected([&](cluster::FailedChunk fc,
                            cluster::RepairTier tier) {
        detected.push_back({fc, tier});
    });

    // Healthy stripe: a single rotted chunk is kDegraded work.
    scrub.noteCorruption({0, 3});
    stripes.markCorrupt(0, 3);
    // Stripe already missing m-1 chunks: one more puts survivors at
    // the decode minimum — the rot there is kDataLossRisk work.
    stripes.markLost(1, 0);
    stripes.markLost(1, 1);
    scrub.noteCorruption({1, 4});
    stripes.markCorrupt(1, 4);

    EXPECT_FALSE(scrub.quiescent());
    scrub.start();
    sim.run(300.0);

    ASSERT_EQ(detected.size(), 2u);
    std::map<StripeId, cluster::RepairTier> byStripe;
    for (const auto &[fc, tier] : detected) {
        EXPECT_TRUE(stripes.chunkLost(fc.stripe, fc.chunk));
        byStripe[fc.stripe] = tier;
    }
    EXPECT_EQ(byStripe[0], cluster::RepairTier::kDegraded);
    EXPECT_EQ(byStripe[1], cluster::RepairTier::kDataLossRisk);
    EXPECT_EQ(scrub.corruptionsDetected(), 2);
    EXPECT_GT(scrub.meanDetectionLatency(), 0.0);
    // Detection promoted both to lost; repair is still pending, so
    // the subsystem is not quiescent until noteOutcome() closes it.
    EXPECT_FALSE(scrub.quiescent());
    scrub.noteOutcome({0, 3}, true);
    scrub.noteOutcome({1, 4}, true);
    EXPECT_TRUE(scrub.quiescent());
    EXPECT_EQ(scrub.corruptionsRepaired(), 2);
}

// -------------------------------------------- runtime differential

TEST(IntegrityScrub, EveryInjectedRotDetectedWithinOneEpoch)
{
    runtime::ExperimentConfig cfg;
    cfg.cluster.numClients = 0;
    cfg.stripes = 20;
    cfg.seed = 42;
    // Dense arrivals so several corruptions land inside the repair
    // window (the run then stays open until every one is detected
    // and re-repaired; arrivals after the window never fire).
    cfg.bitrotRate = 3.0;
    cfg.chaosSeed = 5;
    cfg.chaosHorizon = 8.0;
    cfg.scrub.enabled = true;
    cfg.scrub.rate = 1024.0 * units::MiB;
    cfg.scrub.maxInFlight = 8;

    runtime::RuntimeOptions opts;
    opts.isolateTelemetry = true;
    runtime::Runtime rt(runtime::Algorithm::kChameleon, cfg, opts);
    const auto res = rt.run();

    // 100% recall: the run loop may not end while any injected
    // corruption is undetected or unrepaired.
    EXPECT_GT(res.corruptionsInjected, 0);
    EXPECT_EQ(res.corruptionsDetected, res.corruptionsInjected);
    EXPECT_EQ(res.corruptionsRepaired, res.corruptionsDetected);
    EXPECT_EQ(res.chunksUnrecoverable, 0);

    // Detection within one scrub epoch: a full pass over every live
    // chunk at the configured rate (the executor verify hooks can
    // only detect sooner). 1.5x covers in-flight reads and disk
    // contention around the epoch boundary.
    const double totalBytes = 20.0 * cfg.code->n() *
                              cfg.exec.chunkSize;
    const double epochSeconds = totalBytes / cfg.scrub.rate;
    EXPECT_LE(res.maxDetectionLatency,
              1.5 * epochSeconds + cfg.scrub.tickInterval)
        << "epoch is " << epochSeconds << " s";
}

TEST(IntegrityScrub, DegradedReadsRepairEveryDetectedCorruption)
{
    // Scrub detections reach the hedged-read manager through the same
    // enqueue() as the initial losses.
    runtime::ExperimentConfig cfg;
    cfg.cluster.numClients = 0;
    cfg.stripes = 20;
    cfg.seed = 42;
    cfg.degraded.enabled = true;
    cfg.scrub.enabled = true;
    cfg.scrub.rate = 1024.0 * units::MiB;
    cfg.scrub.maxInFlight = 8;
    cfg.chaosSeed = 7;
    cfg.chaosHorizon = 30.0;
    auto run = [&](double bitrot) {
        runtime::ExperimentConfig c = cfg;
        c.bitrotRate = bitrot;
        runtime::RuntimeOptions opts;
        opts.isolateTelemetry = true;
        return runtime::Runtime(runtime::Algorithm::kCr, c, opts).run();
    };
    const auto clean = run(0.0);
    const auto res = run(0.5);

    EXPECT_GT(res.corruptionsInjected, 0);
    EXPECT_EQ(res.corruptionsDetected, res.corruptionsInjected);
    EXPECT_EQ(res.corruptionsRepaired, res.corruptionsDetected);
    // The accounting closes: the failed node's chunks plus every
    // detected corruption were read back, and nothing is left lost.
    EXPECT_EQ(res.chunksUnrecoverable, 0);
    EXPECT_EQ(res.chunksLostAtEnd, 0);
    EXPECT_EQ(res.chunksRepaired,
              clean.chunksRepaired + res.corruptionsDetected);
}

TEST(IntegrityScrub, SweepStaysByteIdenticalAcrossJobsWithScrub)
{
    auto makeCells = [] {
        std::vector<runtime::SweepCell> cells;
        for (auto algo : {runtime::Algorithm::kCr,
                          runtime::Algorithm::kChameleon}) {
            for (uint64_t seed : {7u, 11u}) {
                runtime::SweepCell cell;
                cell.label = runtime::algorithmKey(algo) + "/" +
                             std::to_string(seed);
                cell.algorithm = algo;
                cell.deriveSeed = false;
                cell.config.chunksToRepair = 6;
                cell.config.seed = seed;
                cell.config.bitrotRate = 0.8;
                cell.config.chaosSeed = 99;
                cell.config.chaosHorizon = 6.0;
                cell.config.scrub.enabled = true;
                cell.config.scrub.rate = 512.0 * units::MiB;
                cell.config.scrub.adaptive = true;
                cells.push_back(std::move(cell));
            }
        }
        return cells;
    };

    runtime::SweepOptions so1;
    so1.jobs = 1;
    auto serial = runtime::SweepRunner(so1).run(makeCells());
    runtime::SweepOptions soN;
    soN.jobs = 3;
    auto parallel = runtime::SweepRunner(soN).run(makeCells());

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
        EXPECT_GT(serial[i].corruptionsInjected, 0) << "cell " << i;
        EXPECT_EQ(serial[i].corruptionsDetected,
                  serial[i].corruptionsInjected)
            << "cell " << i;
    }
}

} // namespace
} // namespace chameleon
