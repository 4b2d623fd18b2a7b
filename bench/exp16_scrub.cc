/**
 * @file
 * Exp#16: scrubbing vs detection latency vs foreground interference.
 * Silent bit rot is only surfaced by reading the data back, and
 * scrub reads are one more background stream contending with
 * foreground I/O — exactly the tension ChameleonEC's tunable
 * dispatch manages for repair traffic. Rows sweep the scrub-read
 * rate under a fixed bit-rot schedule and measure both sides of the
 * trade: injection-to-detection latency (faster scrubbing finds rot
 * sooner) and foreground P99 during the run (faster scrubbing steals
 * more disk bandwidth). Each rate runs twice — static token-bucket
 * scrubbing vs Chameleon-style adaptive scrubbing that charges busy
 * disks more (backing off where foreground is hot, spending the
 * budget where reads are cheap).
 *
 * The run loop holds every cell open until the scrub subsystem is
 * quiescent, so each row's corruption accounting must close: every
 * injected corruption detected, every detection re-repaired.
 * Results go to BENCH_scrub.json.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "util/format.hh"

int
main(int argc, char **argv)
{
    using namespace chameleon;
    using namespace chameleon::bench;
    using runtime::Algorithm;

    init(argc, argv);
    if (opts().smoke) {
        // A short, hot bit-rot window with fast scrubbing: every
        // corruption must be injected, detected, and re-repaired
        // before the run is allowed to end.
        return runSmoke(
            "exp16_scrub", {Algorithm::kCr, Algorithm::kChameleon},
            [](runtime::ExperimentConfig &cfg) {
                cfg.bitrotRate = 1.0;
                cfg.chaosSeed = 99;
                cfg.chaosHorizon = 6.0;
                cfg.scrub.enabled = true;
                cfg.scrub.rate = 512.0 * units::MiB;
                cfg.scrub.adaptive = true;
            },
            [](ShapeChecker &chk, Algorithm,
               const runtime::ExperimentResult &r) {
                chk.positive("corruptions injected",
                             r.corruptionsInjected);
                chk.equals("corruptions detected",
                           r.corruptionsDetected,
                           r.corruptionsInjected);
                chk.equals("corruptions re-repaired",
                           r.corruptionsRepaired,
                           r.corruptionsDetected);
                chk.positive("scrub bytes", r.scrubBytes);
            });
    }

    // One group per scrub rate, static vs adaptive within a group.
    // The bit-rot schedule is pinned by chaosSeed, so every cell
    // sees the same corruptions at the same instants.
    const std::vector<double> ratesMiB = {32.0, 128.0, 512.0};
    std::vector<runtime::SweepCell> cells;
    for (std::size_t g = 0; g < ratesMiB.size(); ++g) {
        const double rate = ratesMiB[g];
        for (int adaptive = 0; adaptive <= 1; ++adaptive) {
            char label[48];
            std::snprintf(label, sizeof(label),
                          "scrub %3.0f MiB/s %s", rate,
                          adaptive ? "adaptive" : "static");
            cells.push_back(makeCell(
                label, Algorithm::kChameleon, static_cast<int>(g),
                [rate, adaptive](runtime::ExperimentConfig &cfg) {
                    cfg.bitrotRate = 0.4;
                    cfg.chaosSeed = 4242;
                    cfg.chaosHorizon = 25.0;
                    cfg.scrub.enabled = true;
                    cfg.scrub.rate = rate * units::MiB;
                    cfg.scrub.adaptive = adaptive != 0;
                }));
        }
    }

    printHeader("Exp#16: scrub rate vs detection latency vs "
                "foreground interference",
                "RS(10,4), YCSB-A; fixed bit-rot schedule, scrub "
                "rate swept, static vs Chameleon-adaptive scrubbing");

    struct Row
    {
        std::string label;
        bool adaptive = false;
        double rateMiB = 0.0;
        runtime::ExperimentResult r;
    };
    std::vector<Row> rows;
    runCells(cells, [&](std::size_t i, const runtime::SweepCell &cell,
                        const runtime::ExperimentResult &r) {
        const double rate = ratesMiB[i / 2];
        std::printf("  %-24s rot %2d/%2d detected  latency mean "
                    "%6.1f s max %6.1f s  fg P99 %6.1f ms  scrub "
                    "%6.0f MiB\n",
                    cell.label.c_str(), r.corruptionsDetected,
                    r.corruptionsInjected, r.meanDetectionLatency,
                    r.maxDetectionLatency, r.p99LatencyMs,
                    r.scrubBytes / units::MiB);
        rows.push_back({cell.label, i % 2 == 1, rate, r});
    });

    ShapeChecker chk;
    for (const Row &row : rows) {
        chk.positive(row.label + " corruptions injected",
                     row.r.corruptionsInjected);
        chk.equals(row.label + " detected == injected",
                   row.r.corruptionsDetected,
                   row.r.corruptionsInjected);
        chk.equals(row.label + " re-repaired == detected",
                   row.r.corruptionsRepaired,
                   row.r.corruptionsDetected);
    }
    // The core trade: the fastest scrub rate must detect sooner
    // than the slowest (both static rows, same rot schedule).
    if (rows.size() >= 2) {
        const Row &slow = rows.front();
        const Row &fast = rows[rows.size() - 2];
        chk.check("detection latency shrinks with scrub rate (" +
                      std::to_string(fast.r.meanDetectionLatency) +
                      " s @ " + std::to_string(fast.rateMiB) +
                      " MiB/s vs " +
                      std::to_string(slow.r.meanDetectionLatency) +
                      " s @ " + std::to_string(slow.rateMiB) +
                      " MiB/s)",
                  fast.r.meanDetectionLatency <=
                      slow.r.meanDetectionLatency);
    }

    std::FILE *json = std::fopen("BENCH_scrub.json", "w");
    if (json) {
        std::fprintf(
            json,
            "{\n"
            "  \"bench\": \"exp16_scrub\",\n"
            "  \"description\": \"scrub rate vs bit-rot detection "
            "latency vs foreground interference, static vs "
            "Chameleon-adaptive scrubbing\",\n"
            "  \"results\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &row = rows[i];
            std::fprintf(
                json,
                "    {\"scrub_mib_s\": %s, \"adaptive\": %s,\n"
                "     \"corruptions_injected\": %d,\n"
                "     \"corruptions_detected\": %d,\n"
                "     \"corruptions_repaired\": %d,\n"
                "     \"mean_detection_latency_s\": %s,\n"
                "     \"max_detection_latency_s\": %s,\n"
                "     \"foreground_p99_ms\": %s,\n"
                "     \"scrub_mib\": %s,\n"
                "     \"repair_throughput_mb_s\": %s}%s\n",
                formatDouble(row.rateMiB).c_str(),
                row.adaptive ? "true" : "false",
                row.r.corruptionsInjected, row.r.corruptionsDetected,
                row.r.corruptionsRepaired,
                formatDouble(row.r.meanDetectionLatency).c_str(),
                formatDouble(row.r.maxDetectionLatency).c_str(),
                formatDouble(row.r.p99LatencyMs).c_str(),
                formatDouble(row.r.scrubBytes / units::MiB).c_str(),
                formatDouble(row.r.repairThroughput / 1e6).c_str(),
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n"
                     "  \"consistent\": %s\n"
                     "}\n",
                     chk.failed() ? "false" : "true");
        std::fclose(json);
        std::printf("wrote BENCH_scrub.json\n");
    } else {
        std::fprintf(stderr, "cannot write BENCH_scrub.json\n");
        return 1;
    }

    std::printf("\nShape checks: every injected corruption is "
                "detected and re-repaired (the run stays open until "
                "the scrub subsystem is quiescent); higher scrub "
                "rates detect sooner at the cost of foreground "
                "interference, and adaptive scrubbing trims that "
                "interference at comparable latency.\n");
    return chk.exitCode();
}
