/**
 * @file
 * Scenario: choosing an erasure code — compares RS, LRC, and
 * Butterfly on repair traffic (the coding-theory view) and on
 * simulated repair throughput under foreground load (the systems
 * view), the trade-off Exp#9 of the paper explores. Also
 * demonstrates the plan layer directly: building CR/PPR/ECPipe and
 * ChameleonEC plans for the same failed chunk and evaluating them
 * byte-exactly.
 *
 * Run: ./build/examples/code_comparison
 */

#include <cstdio>

#include "cluster/stripe_table.hh"
#include "ec/factory.hh"
#include "repair/chameleon_planner.hh"
#include "repair/strategies.hh"
#include "runtime/experiment.hh"

using namespace chameleon;

static void
trafficView()
{
    std::printf("repair traffic for one lost data chunk (chunk "
                "units):\n");
    Rng rng(5);
    for (auto code : {ec::makeRs(10, 4), ec::makeLrc(10, 2, 2),
                      ec::makeRs(2, 2), ec::makeButterfly()}) {
        std::vector<ChunkIndex> avail;
        for (ChunkIndex c = 1; c < code->n(); ++c)
            avail.push_back(c);
        auto spec = code->makeRepairSpec(0, avail, rng);
        double traffic = 0;
        for (const auto &read : spec.reads)
            traffic += read.fraction;
        std::printf("  %-14s reads %zu helpers, %.1f chunks of "
                    "traffic%s\n",
                    code->name().c_str(), spec.reads.size(), traffic,
                    spec.combinable ? "" : " (sub-chunk reads)");
    }
}

static void
planView()
{
    std::printf("\nrepair plans for the same failed chunk "
                "(RS(6,3)):\n");
    auto code = ec::makeRs(6, 3);
    cluster::StripeTable stripes(code, 12);
    Rng rng(9);
    stripes.createStripes(1, rng);

    // Real stripe data for byte-exact evaluation.
    std::vector<ec::Buffer> data(6, ec::Buffer(512));
    for (auto &chunk : data)
        for (auto &byte : chunk)
            byte = static_cast<uint8_t>(rng.below(256));
    auto parity = code->encode(data);
    std::vector<ec::Buffer> chunks = data;
    for (auto &p : parity)
        chunks.push_back(std::move(p));

    stripes.markLost(0, 2);
    for (auto topo : {repair::Topology::kStar, repair::Topology::kTree,
                      repair::Topology::kChain}) {
        auto plan = repair::makeBaselinePlan(stripes, {0, 2}, topo,
                                             {}, rng);
        auto repaired = repair::evaluatePlan(plan, chunks);
        std::printf("  %-7s depth %d, traffic %.0f chunks, "
                    "byte-exact: %s\n",
                    repair::topologyName(topo).c_str(), plan.depth(),
                    plan.trafficChunks(),
                    repaired == chunks[2] ? "yes" : "NO");
    }

    // A ChameleonEC plan shaped by (synthetic) bandwidth estimates:
    // node 11's downlink is rich, node 3's uplink is starved.
    auto state = repair::PlannerState::make(12, 64 * units::MiB);
    std::fill(state.bandUp.begin(), state.bandUp.end(), 300e6);
    std::fill(state.bandDown.begin(), state.bandDown.end(), 300e6);
    state.bandUp[3] = 10e6;
    repair::PlannerChunkInput input;
    input.stripe = 0;
    input.failed = 2;
    input.required = 6;
    input.combinable = true;
    auto avail = stripes.availableChunks(0);
    for (ChunkIndex c : avail) {
        input.helperChunks.push_back(c);
        input.helperNodes.push_back(stripes.location(0, c));
        input.fractions.push_back(1.0);
    }
    input.destCandidates = stripes.candidateDestinations(0);
    auto planned = repair::planChunk(state, input);
    if (planned) {
        // Fill coefficients and evaluate.
        std::vector<ChunkIndex> helpers;
        for (const auto &src : planned->plan.sources)
            helpers.push_back(src.chunk);
        auto spec = code->specFor(2, helpers);
        for (auto &src : planned->plan.sources)
            for (const auto &read : spec->reads)
                if (read.helper == src.chunk)
                    src.coeff = read.coeff;
        auto repaired = repair::evaluatePlan(planned->plan, chunks);
        std::printf("  Chameleon plan: depth %d, est. %.2f s, "
                    "byte-exact: %s\n",
                    planned->plan.depth(), planned->estimatedTime,
                    repaired == chunks[2] ? "yes" : "NO");
    }
}

static void
systemsView()
{
    std::printf("\nsimulated repair throughput under YCSB-A "
                "(ChameleonEC):\n");
    for (auto code : {ec::makeRs(10, 4), ec::makeLrc(10, 2, 2)}) {
        runtime::ExperimentConfig cfg;
        cfg.code = code;
        cfg.chunksToRepair = 20;
        cfg.exec.sliceSize = 2 * units::MiB;
        cfg.trace = traffic::ycsbA();
        auto r = runExperiment(runtime::Algorithm::kChameleon, cfg);
        std::printf("  %-14s %7.1f MB/s\n", code->name().c_str(),
                    r.repairThroughput / 1e6);
    }
    std::printf("LRC repairs faster at equal k: its local groups "
                "read half the helpers.\n");
}

int
main()
{
    trafficView();
    planView();
    systemsView();
    return 0;
}
