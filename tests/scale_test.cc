/**
 * @file
 * Scale-out cluster layer tests: the differential harness proving
 * the scanner/queue repair path produces byte-identical outcomes to
 * the eager path at small scale for every driver, loss accounting
 * on the scanner path under chaos, property/fuzz coverage of
 * RepairQueue priority and job-limit invariants under seeded chaos,
 * the StripeTable memory budget at 10^6 stripes, and a regression
 * guard that per-event solver work stays flat as the cluster grows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "cluster/repair_queue.hh"
#include "cluster/replicator_scanner.hh"
#include "cluster/stripe_table.hh"
#include "ec/factory.hh"
#include "fault/fault.hh"
#include "runtime/runtime.hh"
#include "sim/simulator.hh"

using namespace chameleon;
using namespace chameleon::cluster;
using namespace chameleon::runtime;

namespace {

// --- differential: scanner path vs direct path --------------------

/** Small, fast cell: no foreground trace, few chunks. */
ExperimentConfig
diffConfig(uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.chunksToRepair = 3;
    cfg.seed = seed;
    cfg.trace.reset();
    return cfg;
}

/** Same cell, routed through the scanner/queue path. Permissive
 * admission caps so the prime sweep dispatches the whole work list
 * in one batch, exactly like the direct hand-off. */
ExperimentConfig
withScanner(ExperimentConfig cfg)
{
    cfg.scanner.enabled = true;
    cfg.scanner.batchSize = 1 << 20;
    cfg.scanner.queue.maxTotalJobs = 1 << 20;
    cfg.scanner.queue.maxNodeJobs = 1 << 20;
    return cfg;
}

/** Runs `cfg` on both paths, requires identical results, and
 * returns the eager one. */
ExperimentResult
expectIdentical(Algorithm algorithm, const ExperimentConfig &cfg)
{
    Runtime direct(algorithm, cfg);
    ExperimentResult a = direct.run();
    Runtime scanned(algorithm, withScanner(cfg));
    ExperimentResult b = scanned.run();
    // Spot-check the interesting fields first for a readable diff...
    EXPECT_EQ(a.chunksRepaired, b.chunksRepaired);
    EXPECT_EQ(a.chunksUnrecoverable, b.chunksUnrecoverable);
    EXPECT_DOUBLE_EQ(a.repairTime, b.repairTime);
    EXPECT_DOUBLE_EQ(a.repairThroughput, b.repairThroughput);
    EXPECT_EQ(a.throughputTimeline.size(), b.throughputTimeline.size());
    EXPECT_EQ(a.uplinks.size(), b.uplinks.size());
    // ...then require the full field-wise record to match.
    EXPECT_TRUE(a == b) << "scanner-path result diverges from the "
                           "direct path for "
                        << algorithmName(algorithm);
    return a;
}

TEST(ScaleDifferential, ScannerPathMatchesDirectCr)
{
    expectIdentical(Algorithm::kCr, diffConfig(11));
}

TEST(ScaleDifferential, ScannerPathMatchesDirectChameleon)
{
    expectIdentical(Algorithm::kChameleon, diffConfig(12));
}

TEST(ScaleDifferential, ScannerPathMatchesDirectEcpipeChainDag)
{
    ExperimentConfig cfg = diffConfig(13);
    cfg.topology.kind = dag::RepairTopology::kChain;
    expectIdentical(Algorithm::kEcpipe, cfg);
}

TEST(ScaleDifferential, ScannerPathMatchesDirectUnderForeground)
{
    ExperimentConfig cfg = diffConfig(14);
    std::optional<traffic::TraceProfile> profile;
    ASSERT_TRUE(tryResolveTrace("ycsb-a", &profile));
    cfg.trace = profile;
    expectIdentical(Algorithm::kCr, cfg);
}

TEST(ScaleDifferential, ScannerPathMatchesDirectDegradedReads)
{
    // examples/scenarios/hedged.json with its straggler pinned to
    // the node the eager run auto-picks (the scanner path has no
    // eager work list to pick from): the primary read stalls and a
    // hedge must fire on both paths.
    ExperimentConfig cfg = diffConfig(7);
    cfg.cluster.numNodes = 24;
    cfg.chunksToRepair = 2;
    cfg.degraded.enabled = true;
    cfg.stragglers = {StragglerEvent{0.1, 21, 0.02, 120.0, true, true}};
    ExperimentResult r = expectIdentical(Algorithm::kCr, cfg);
    EXPECT_GT(r.hedgesIssued, 0);
    EXPECT_GT(r.hedgeWins, 0);
}

TEST(ScaleDifferential, ExactStripeCountKnob)
{
    // stripes > 0 creates exactly that many stripes up front.
    ExperimentConfig cfg = diffConfig(15);
    cfg.stripes = 300;
    Runtime rt(Algorithm::kCr, withScanner(cfg));
    ExperimentResult r = rt.run();
    EXPECT_GT(r.chunksRepaired, 0);
    EXPECT_EQ(r.chunksUnrecoverable, 0);
}

// --- loss accounting on the scanner path --------------------------

TEST(ScaleAccounting, ScannerChaosCountsEachLossOnce)
{
    // examples/scenarios/scale.json at 100 stripes under chaos. The
    // scanner re-queues every unrecoverable stripe on each sweep;
    // each comeback must not count as another unrecoverable chunk.
    ExperimentConfig cfg;
    cfg.code = ec::makeRs(10, 4);
    cfg.trace.reset();
    cfg.cluster.numNodes = 24;
    cfg.cluster.numClients = 0;
    cfg.cluster.uplinkBw = cfg.cluster.downlinkBw = 312500000;
    cfg.cluster.diskBw = 500000000;
    cfg.stripes = 100;
    cfg.scanner.enabled = true;
    cfg.scanner.batchSize = 64;
    cfg.scanner.tickInterval = 0.5;
    cfg.scanner.queue.maxTotalJobs = 64;
    cfg.scanner.queue.maxNodeJobs = 4;
    cfg.chaosRate = 1.0;
    cfg.chaosSeed = 3;
    cfg.seed = 21;
    Runtime rt(Algorithm::kCr, cfg);
    ExperimentResult r = rt.run();
    ASSERT_GT(r.chunksLostAtEnd, 0) << "chaos lost no stripe for good";
    // Every loss ends repaired or still lost.
    const int losses = r.chunksRepaired + r.chunksLostAtEnd;
    EXPECT_EQ(r.chunksRepaired + r.chunksUnrecoverable, losses);
    EXPECT_LE(r.chunksUnrecoverable, r.chunksLostAtEnd);
}

// --- RepairQueue property/fuzz under seeded chaos ------------------

/** Scanner-equivalent tier classification from stored lost bits. */
RepairTier
tierFor(const StripeTable &stripes, StripeId stripe)
{
    const int lost =
        std::popcount(stripes.lostMask(stripe));
    const int margin =
        stripes.code().n() - lost - stripes.code().k();
    return margin < 1 ? RepairTier::kDataLossRisk
                      : RepairTier::kDegraded;
}

/** Pushes every currently lost chunk at its current tier (push
 * dedups and escalates queued entries, like a scanner epoch). */
void
rescanAll(StripeTable &stripes, RepairQueue &queue)
{
    for (StripeId s = 0; s < stripes.stripeCount(); ++s) {
        uint64_t bits = stripes.lostMask(s);
        const RepairTier tier = tierFor(stripes, s);
        while (bits) {
            const int c = std::countr_zero(bits);
            bits &= bits - 1;
            queue.push(FailedChunk{s, static_cast<ChunkIndex>(c)},
                       tier);
        }
    }
}

/** Repairs one chunk the way the session does (repair + relocate)
 * when the stripe is recoverable and a destination exists. */
bool
tryRepair(StripeTable &stripes, const FailedChunk &fc, Rng &rng)
{
    if (static_cast<int>(stripes.availableChunks(fc.stripe).size()) <
        stripes.code().k())
        return false;
    auto dests = stripes.candidateDestinations(fc.stripe);
    if (dests.empty())
        return false;
    stripes.markRepaired(fc.stripe, fc.chunk);
    stripes.relocate(fc.stripe, fc.chunk,
                     dests[rng.below(dests.size())]);
    return true;
}

TEST(ScaleQueueProperty, SeededChaosKeepsQueueInvariants)
{
    // Randomized crash/rejoin timelines from the chaos generator,
    // applied eagerly against a StripeTable while the queue is
    // pumped and drained. Invariants, checked at every admission:
    //  1. no priority inversion — when a tier-t entry is admitted,
    //     no lower-numbered (more urgent) tier holds an admissible
    //     entry;
    //  2. per-node job limits and the cluster-wide cap are never
    //     exceeded;
    //  3. closure — after the chaos ends, every lost chunk is
    //     either repaired or its stripe is unrecoverable.
    // On failure the chaos seed lands in chaos_seed_scalequeue.txt
    // (ChurnFuzz convention, per-suite filename so parallel ctest
    // runs cannot clobber each other) so CI can attach it.
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("chaos seed " + std::to_string(seed));
        Rng rng(seed * 9176);
        auto code = ec::makeRs(4, 2);
        const int nodes = 12;
        StripeTable stripes(code, nodes);
        {
            Rng prng = rng.split();
            stripes.createStripes(120, prng);
        }
        RepairQueueConfig qcfg;
        qcfg.maxTotalJobs = 5;
        qcfg.maxNodeJobs = 2;
        RepairQueue queue(stripes, qcfg);

        auto chaos = fault::generateChaos(
            fault::ChaosConfig::fromRate(0.4, 80.0), nodes, seed);
        struct Ev
        {
            SimTime at;
            bool crash;
            NodeId node;
        };
        std::vector<Ev> evs;
        for (const auto &fe : chaos.events) {
            if (fe.kind != fault::FaultKind::kNodeCrash)
                continue;
            evs.push_back({fe.at, true, fe.node});
            if (fe.duration > 0)
                evs.push_back({fe.at + fe.duration, false, fe.node});
        }
        std::stable_sort(evs.begin(), evs.end(),
                         [](const Ev &a, const Ev &b) {
                             return a.at < b.at;
                         });

        std::vector<AdmittedRepair> inflight;
        auto pump = [&] {
            while (auto adm = queue.pop()) {
                for (int t = 0;
                     t < static_cast<int>(adm->tier); ++t)
                    EXPECT_FALSE(queue.admissibleInTier(
                        static_cast<RepairTier>(t)))
                        << "priority inversion: admitted tier "
                        << static_cast<int>(adm->tier)
                        << " while tier " << t << " is admissible";
                for (NodeId n = 0; n < nodes; ++n)
                    EXPECT_LE(queue.jobsOnNode(n),
                              qcfg.maxNodeJobs);
                EXPECT_LE(queue.inFlight(), qcfg.maxTotalJobs);
                inflight.push_back(*adm);
            }
        };
        auto completeSome = [&](bool all) {
            while (!inflight.empty()) {
                const std::size_t i = rng.below(inflight.size());
                const FailedChunk fc = inflight[i].chunk;
                inflight.erase(inflight.begin() +
                               static_cast<std::ptrdiff_t>(i));
                tryRepair(stripes, fc, rng);
                queue.complete(fc);
                if (!all && rng.below(2) == 0)
                    break;
            }
        };

        for (const Ev &ev : evs) {
            if (ev.crash) {
                NodeId n = ev.node;
                if (n == kInvalidNode ||
                    n >= static_cast<NodeId>(nodes) ||
                    stripes.nodeFailed(n))
                    n = static_cast<NodeId>(rng.below(nodes));
                if (stripes.nodeFailed(n) ||
                    stripes.failedNodeCount() >= 4)
                    continue;
                stripes.failNode(n);
            } else {
                if (ev.node == kInvalidNode ||
                    !stripes.nodeFailed(ev.node))
                    continue;
                stripes.rejoinNode(ev.node);
            }
            queue.invalidate();
            rescanAll(stripes, queue);
            pump();
            completeSome(false);
        }

        // Drain: one final rescan, then pump/complete to empty.
        queue.invalidate();
        rescanAll(stripes, queue);
        int guard = 0;
        for (;;) {
            pump();
            if (inflight.empty())
                break;
            completeSome(true);
            ASSERT_LT(++guard, 100000) << "drain did not converge";
        }
        EXPECT_TRUE(queue.idle());

        // Closure: every chunk still lost belongs to a stripe the
        // code cannot reconstruct.
        for (StripeId s = 0; s < stripes.stripeCount(); ++s) {
            const int lost =
                std::popcount(stripes.lostMask(s));
            if (lost == 0)
                continue;
            EXPECT_LT(code->n() - lost, code->k())
                << "recoverable stripe " << s
                << " left unrepaired with " << lost << " losses";
        }

        if (::testing::Test::HasFailure()) {
            std::ofstream("chaos_seed_scalequeue.txt")
                << seed << "\n"
                << chaos.str() << "\n";
            std::fprintf(stderr,
                         "scale queue fuzz failed; chaos seed %llu "
                         "(schedule in chaos_seed_scalequeue.txt)\n",
                         static_cast<unsigned long long>(seed));
            break;
        }
    }
}

TEST(ScaleQueueProperty, ScannerChaosClosesEveryLoss)
{
    // Full-component chaos: deferred crashes + the real scanner
    // sweep/admission loop under the simulator, with a toy repair
    // worker standing in for the session. Every loss must be
    // discovered, admitted, and end repaired-or-unrecoverable.
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("chaos seed " + std::to_string(seed));
        Rng rng(seed * 31337);
        sim::Simulator sim;
        auto code = ec::makeRs(4, 2);
        const int nodes = 12;
        StripeTable stripes(code, nodes);
        {
            Rng prng = rng.split();
            stripes.createStripes(100, prng);
        }
        RepairQueueConfig qcfg;
        qcfg.maxTotalJobs = 8;
        qcfg.maxNodeJobs = 2;
        ScannerConfig scfg;
        scfg.batchSize = 16;
        scfg.tickInterval = 0.5;
        scfg.queue = qcfg;
        RepairQueue queue(stripes, qcfg);
        ReplicatorScanner scanner(stripes, queue, sim, scfg);

        std::vector<FailedChunk> inflight;
        scanner.setDispatch([&](std::vector<FailedChunk> batch) {
            inflight.insert(inflight.end(), batch.begin(),
                            batch.end());
        });

        auto chaos = fault::generateChaos(
            fault::ChaosConfig::fromRate(0.3, 60.0), nodes, seed);
        Rng pickRng = rng.split();
        for (std::size_t i = 0; i < chaos.events.size(); ++i) {
            const auto &fe = chaos.events[i];
            if (fe.kind != fault::FaultKind::kNodeCrash)
                continue;
            sim.schedule(fe.at + 1.0, [&, i] {
                const auto &ev = chaos.events[i];
                NodeId n = ev.node;
                if (n == kInvalidNode ||
                    n >= static_cast<NodeId>(nodes) ||
                    stripes.nodeFailed(n))
                    n = static_cast<NodeId>(pickRng.below(nodes));
                if (stripes.nodeFailed(n) ||
                    stripes.failedNodeCount() >= 4)
                    return;
                stripes.failNodeDeferred(n);
                scanner.noteCrash(n);
                if (ev.duration > 0)
                    sim.scheduleAfter(ev.duration, [&, n] {
                        if (stripes.nodeFailed(n)) {
                            stripes.rejoinNode(n);
                            scanner.noteRejoin(n);
                        }
                    });
            });
        }

        // Toy repair worker: one chunk per 0.3 s.
        std::function<void()> worker = [&] {
            if (sim.now() > 400.0)
                return;
            if (!inflight.empty()) {
                const FailedChunk fc = inflight.front();
                inflight.erase(inflight.begin());
                const bool ok = tryRepair(stripes, fc, rng);
                scanner.onChunkOutcome(fc, ok);
            }
            sim.scheduleAfter(0.3, [&worker] { worker(); });
        };
        sim.scheduleAfter(0.3, [&worker] { worker(); });

        scanner.start();
        sim.run(400.0);
        scanner.stop();

        // Drain synchronously: one final full sweep enqueues any
        // not-yet-admitted losses, then pump/complete to empty.
        while (!inflight.empty()) {
            const FailedChunk fc = inflight.front();
            inflight.erase(inflight.begin());
            scanner.onChunkOutcome(fc, tryRepair(stripes, fc, rng));
        }
        scanner.primeSync();
        int guard = 0;
        while (!queue.idle() || !inflight.empty()) {
            if (inflight.empty())
                scanner.pumpAdmission();
            while (!inflight.empty()) {
                const FailedChunk fc = inflight.front();
                inflight.erase(inflight.begin());
                scanner.onChunkOutcome(fc,
                                       tryRepair(stripes, fc, rng));
            }
            ASSERT_LT(++guard, 100000) << "drain did not converge";
        }
        EXPECT_TRUE(scanner.discoveryComplete());

        for (StripeId s = 0; s < stripes.stripeCount(); ++s) {
            const int lost =
                std::popcount(stripes.lostMask(s));
            if (lost == 0)
                continue;
            EXPECT_LT(code->n() - lost, code->k())
                << "recoverable stripe " << s
                << " left unrepaired with " << lost << " losses";
        }

        if (::testing::Test::HasFailure()) {
            std::ofstream("chaos_seed_scannerchaos.txt")
                << seed << "\n"
                << chaos.str() << "\n";
            std::fprintf(stderr,
                         "scanner chaos closure failed; chaos seed "
                         "%llu (schedule in chaos_seed_scannerchaos.txt)\n",
                         static_cast<unsigned long long>(seed));
            break;
        }
    }
}

// --- memory budget -------------------------------------------------

TEST(ScaleMemory, MillionStripesStayUnderDocumentedBudget)
{
    // 1000 nodes, 10^6 stripes of RS(10,4): the SoA table documents
    // a budget of at most 16*n + 64 bytes per stripe (placement +
    // reverse index + lost/gen/state arrays, capacity included).
    auto code = ec::makeRs(10, 4);
    const int n = code->n();
    StripeTable stripes(code, 1000);
    Rng rng(7);
    const int count = 1000000;
    stripes.createStripes(count, rng);
    ASSERT_EQ(stripes.stripeCount(), count);
    const double per_stripe =
        static_cast<double>(stripes.memoryBytes()) / count;
    EXPECT_LE(per_stripe, 16.0 * n + 64.0)
        << "StripeTable spends " << per_stripe
        << " bytes/stripe, over the documented budget";
}

// --- solver work stays flat as the cluster grows -------------------

double
dirtyVisitsForNodes(int num_nodes)
{
    ExperimentConfig cfg;
    cfg.chunksToRepair = 4;
    cfg.seed = 99;
    cfg.trace.reset();
    cfg.cluster.numNodes = num_nodes;
    RuntimeOptions opts;
    opts.isolateTelemetry = true;
    Runtime rt(Algorithm::kCr, cfg, opts);
    rt.run();
    const auto snap = rt.runTelemetry()->metrics.snapshot();
    const auto *sample =
        snap.find("sim.solver.dirty_resource_visits");
    return sample ? sample->value : 0.0;
}

TEST(ScaleSolver, DirtyResourceVisitsStayFlatAcrossClusterSize)
{
    // Parsed as the FlowNetwork constructor does.
    const char *env = std::getenv("CHAMELEON_SIM_REFERENCE_SOLVER");
    if (env != nullptr && env[0] != '\0' && env[0] != '0')
        GTEST_SKIP() << "CHAMELEON_SIM_REFERENCE_SOLVER forces the global "
                        "solve, which visits every resource by design";
    // The same repair workload on a 10x larger cluster must not do
    // ~10x the solver work: the incremental solver only visits
    // resources dirtied by the flows actually present. Allow slack
    // for placement spread, but reject O(nodes) regressions.
    const double small = dirtyVisitsForNodes(20);
    const double large = dirtyVisitsForNodes(200);
    ASSERT_GT(small, 0.0);
    ASSERT_GT(large, 0.0);
    EXPECT_LT(large, small * 4.0)
        << "per-event solver work scales with cluster size: "
        << small << " visits at 20 nodes vs " << large
        << " at 200 nodes";
}

} // namespace
