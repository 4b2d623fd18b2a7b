/**
 * @file
 * Exp#17: wide codes and hedged degraded reads. Part A sweeps the
 * codec registry from RS(6,3) up to RS(24,8) plus multi-group LRC
 * variants — every code built through the registry grammar, every
 * cell sized so the stripe fits with placement headroom — and
 * reports repair throughput next to each code's guaranteed
 * repairable count (the fault-tolerance the wider stripe buys).
 * Part B pins a straggler into a degraded read's helper set and
 * compares the hedged policy (second repair attempt from a disjoint
 * helper set when the primary blows through its expected completion
 * time) against the same reads without hedging: the hedge turns a
 * straggler-dominated tail into a near-nominal read.
 *
 * Results go to BENCH_wide_codes.json (exp16_scrub style).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "ec/factory.hh"
#include "util/format.hh"

namespace {

using namespace chameleon;

/** The pinned Part B scenario: one slow helper for the whole run. */
void
hedgedScenario(runtime::ExperimentConfig &cfg, int chunks, bool hedge)
{
    cfg.code = ec::makeCode("rs(10,4)");
    cfg.cluster.numNodes = 24;
    cfg.chunksToRepair = chunks;
    cfg.trace.reset(); // isolate the repair path from foreground I/O
    cfg.degraded.enabled = true;
    cfg.degraded.hedge = hedge;
    cfg.stragglers.push_back(runtime::StragglerEvent{
        0.1, kInvalidNode, 0.02, 120.0, true, true});
    cfg.seed = 7;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace chameleon::bench;
    using runtime::Algorithm;

    init(argc, argv);
    if (opts().smoke) {
        // Wide-RS leg: a full RS(20,8) repair through both a session
        // baseline and the Chameleon dispatcher.
        int rc = runSmoke(
            "exp17_wide_codes",
            {Algorithm::kCr, Algorithm::kChameleon},
            [](runtime::ExperimentConfig &cfg) {
                cfg.code = ec::makeCode("rs(20,8)");
                cfg.cluster.numNodes = 36;
            },
            [](ShapeChecker &chk, Algorithm,
               const runtime::ExperimentResult &r) {
                chk.equals("wide-code chunks repaired",
                           r.chunksRepaired, kSmokeChunks);
            });
        // Hedged leg: the pinned straggler scenario must finish with
        // at least one hedge launched.
        ShapeChecker chk;
        auto cell = makeCell("hedged degraded read", Algorithm::kCr);
        hedgedScenario(cell.config, 1, true);
        cell.deriveSeed = false;
        runCells({cell}, [&](std::size_t,
                             const runtime::SweepCell &,
                             const runtime::ExperimentResult &r) {
            chk.equals("hedged chunk repaired", r.chunksRepaired, 1);
            chk.check("hedge launched (got " +
                          std::to_string(r.hedgesIssued) + ")",
                      r.hedgesIssued >= 1);
            chk.positive("degraded P99 ms",
                         r.degradedLatency.p99 * 1e3);
        });
        return rc != 0 ? rc : chk.exitCode();
    }

    // Part A: codec-registry sweep. Every code is built through the
    // string grammar; numNodes scales with the stripe width so
    // placement always has headroom.
    const std::vector<std::string> specs = {
        "rs(6,3)",  "rs(10,4)",      "rs(16,6)",     "rs(20,8)",
        "rs(24,8)", "lrc(12,2,2,2)", "lrc(24,4,2,2)"};
    const std::vector<Algorithm> algos = {Algorithm::kCr,
                                          Algorithm::kChameleon};
    std::vector<runtime::SweepCell> cells;
    for (std::size_t c = 0; c < specs.size(); ++c) {
        auto code = ec::makeCode(specs[c]);
        for (auto algo : algos) {
            char label[64];
            std::snprintf(label, sizeof(label), "%s / %s",
                          specs[c].c_str(),
                          runtime::algorithmName(algo).c_str());
            cells.push_back(makeCell(
                label, algo, static_cast<int>(c),
                [code](runtime::ExperimentConfig &cfg) {
                    cfg.code = code;
                    cfg.cluster.numNodes =
                        std::max(20, code->n() + 8);
                    cfg.chunksToRepair = benchChunks(40);
                }));
        }
    }

    printHeader("Exp#17: wide codes + hedged degraded reads",
                "registry-built codes RS(6,3)..RS(24,8) and "
                "multi-group LRCs; then hedged vs unhedged degraded "
                "reads under a pinned straggler");

    struct WideRow
    {
        std::string spec;
        int n = 0, k = 0, guaranteed = 0;
        Algorithm algorithm = Algorithm::kNone;
        runtime::ExperimentResult r;
    };
    std::vector<WideRow> wide;
    runCells(cells, [&](std::size_t i, const runtime::SweepCell &cell,
                        const runtime::ExperimentResult &r) {
        const std::string &spec = specs[i / algos.size()];
        const auto &code = *cell.config.code;
        if (i % algos.size() == 0)
            std::printf("%s (n=%d, k=%d, guaranteed repairable "
                        "%d):\n",
                        spec.c_str(), code.n(), code.k(),
                        code.guaranteedRepairableCount());
        std::printf("  %-16s repair %7.1f MB/s   fg P99 %6.1f ms\n",
                    runtime::algorithmName(cell.algorithm).c_str(),
                    r.repairThroughput / 1e6, r.p99LatencyMs);
        wide.push_back({spec, code.n(), code.k(),
                        code.guaranteedRepairableCount(),
                        cell.algorithm, r});
    });

    // Part B: hedged vs unhedged degraded reads, pinned straggler.
    // deriveSeed=false: the scenario (and its straggler placement)
    // is pinned, like the smoke cells.
    std::vector<runtime::SweepCell> hcells;
    const std::vector<int> chunk_counts = {1, 2};
    for (std::size_t g = 0; g < chunk_counts.size(); ++g) {
        for (int hedge = 0; hedge <= 1; ++hedge) {
            char label[48];
            std::snprintf(label, sizeof(label),
                          "%d-chunk degraded read, %s",
                          chunk_counts[g],
                          hedge ? "hedged" : "no hedge");
            auto cell = makeCell(label, Algorithm::kCr,
                                 static_cast<int>(g));
            hedgedScenario(cell.config, chunk_counts[g], hedge != 0);
            cell.deriveSeed = false;
            hcells.push_back(std::move(cell));
        }
    }

    struct HedgeRow
    {
        std::string label;
        int chunks = 0;
        bool hedge = false;
        runtime::ExperimentResult r;
    };
    std::vector<HedgeRow> hrows;
    std::printf("\nHedged degraded reads (RS(10,4), 24 nodes, one "
                "helper throttled to 2%% for the whole run):\n");
    runCells(hcells, [&](std::size_t i, const runtime::SweepCell &cell,
                         const runtime::ExperimentResult &r) {
        std::printf("  %-32s P99 %8.1f ms  hedges %d won %d\n",
                    cell.label.c_str(), r.degradedLatency.p99 * 1e3,
                    r.hedgesIssued, r.hedgeWins);
        hrows.push_back({cell.label,
                         chunk_counts[i / 2], i % 2 == 1, r});
    });

    ShapeChecker chk;
    for (const WideRow &row : wide) {
        chk.check(row.spec + " / " +
                      runtime::algorithmName(row.algorithm) +
                      " all chunks repaired (" +
                      std::to_string(row.r.chunksRepaired) + ")",
                  row.r.chunksRepaired == benchChunks(40));
        chk.check(row.spec + " guaranteed repairable > 0 (" +
                      std::to_string(row.guaranteed) + ")",
                  row.guaranteed > 0);
    }
    for (std::size_t g = 0; g + 1 < hrows.size(); g += 2) {
        const HedgeRow &plain = hrows[g];
        const HedgeRow &hedged = hrows[g + 1];
        chk.check(hedged.label + " beats no-hedge P99 (" +
                      std::to_string(hedged.r.degradedLatency.p99 *
                                     1e3) +
                      " ms vs " +
                      std::to_string(plain.r.degradedLatency.p99 *
                                     1e3) +
                      " ms)",
                  hedged.r.degradedLatency.p99 <
                      plain.r.degradedLatency.p99);
        chk.check(hedged.label + " launched hedges (" +
                      std::to_string(hedged.r.hedgesIssued) + ")",
                  hedged.r.hedgesIssued >= 1);
    }

    std::FILE *json = std::fopen("BENCH_wide_codes.json", "w");
    if (json) {
        std::fprintf(
            json,
            "{\n"
            "  \"bench\": \"exp17_wide_codes\",\n"
            "  \"description\": \"registry-built wide-RS and "
            "multi-group LRC repair sweep, plus hedged vs unhedged "
            "degraded reads under a pinned straggler\",\n"
            "  \"results\": [\n");
        for (std::size_t i = 0; i < wide.size(); ++i) {
            const WideRow &row = wide[i];
            std::fprintf(
                json,
                "    {\"code\": \"%s\", \"n\": %d, \"k\": %d,\n"
                "     \"guaranteed_repairable\": %d,\n"
                "     \"algorithm\": \"%s\",\n"
                "     \"repair_throughput_mb_s\": %s,\n"
                "     \"foreground_p99_ms\": %s}%s\n",
                row.spec.c_str(), row.n, row.k, row.guaranteed,
                runtime::algorithmKey(row.algorithm).c_str(),
                formatDouble(row.r.repairThroughput / 1e6).c_str(),
                formatDouble(row.r.p99LatencyMs).c_str(),
                i + 1 < wide.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n"
                     "  \"hedged_degraded\": [\n");
        for (std::size_t i = 0; i < hrows.size(); ++i) {
            const HedgeRow &row = hrows[i];
            std::fprintf(
                json,
                "    {\"chunks\": %d, \"hedge\": %s,\n"
                "     \"degraded_p99_ms\": %s,\n"
                "     \"degraded_mean_ms\": %s,\n"
                "     \"hedges\": %d, \"hedge_wins\": %d,\n"
                "     \"repair_time_s\": %s}%s\n",
                row.chunks, row.hedge ? "true" : "false",
                formatDouble(row.r.degradedLatency.p99 * 1e3).c_str(),
                formatDouble(row.r.degradedLatency.mean * 1e3)
                    .c_str(),
                row.r.hedgesIssued, row.r.hedgeWins,
                formatDouble(row.r.repairTime).c_str(),
                i + 1 < hrows.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n"
                     "  \"consistent\": %s\n"
                     "}\n",
                     chk.failed() ? "false" : "true");
        std::fclose(json);
        std::printf("wrote BENCH_wide_codes.json\n");
    } else {
        std::fprintf(stderr, "cannot write BENCH_wide_codes.json\n");
        return 1;
    }

    std::printf("\nShape checks: every registry-built code repairs "
                "all chunks (wider stripes trade repair throughput "
                "for guaranteed failures survived); hedging cuts "
                "degraded-read P99 under a pinned straggler.\n");
    return chk.exitCode();
}
