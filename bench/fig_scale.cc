/**
 * @file
 * Scale sweep for the cluster layer: events/sec and peak RSS as the
 * simulated cluster grows from 50 nodes / 10^4 stripes to 5000
 * nodes / 10^6 stripes, with repair routed through the background
 * replicator scanner and prioritized repair queue (the scale-out
 * path). Each cell fails node 0 and repairs every chunk it hosted;
 * the expected chunk count is recomputed from the same seed
 * derivation the runtime uses, so the cell checks that the scanner
 * discovered and repaired exactly the hosted set. The standalone
 * StripeTable of each cell, after that one chunksOnNode(0) query
 * (so the reverse index holds node 0's list only: about 4*n + 22
 * bytes/stripe), is also measured against its documented
 * <= 16*n + 64 bytes/stripe budget.
 *
 * Results go to BENCH_scale.json (events/sec and peak-RSS rows, in
 * the micro_sim style). Exit code: non-zero if any cell fails its
 * checks; the rates are recorded, not asserted.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "bench_common.hh"
#include "cluster/stripe_table.hh"
#include "runtime/runtime.hh"
#include "util/format.hh"
#include "util/rng.hh"

namespace {

using namespace chameleon;
using namespace chameleon::bench;

/** Process peak RSS in bytes (VmHWM, getrusage fallback). Monotone
 * high-water mark — cells run smallest first so the number tracks
 * the largest cell completed so far. */
double
peakRssBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
    }
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

struct Cell
{
    int nodes = 0;
    int stripes = 0;
};

struct CellResult
{
    Cell cell;
    long long expectedChunks = 0;
    long long chunksRepaired = 0;
    long long unrecoverable = 0;
    long long events = 0;
    long long queueScanSteps = 0;
    long long queueMemoSkips = 0;
    long long rateRecomputes = 0;
    long long recomputeFlowVisits = 0;
    double seconds = 0.0;
    double eventsPerSec = 0.0;
    double bytesPerStripe = 0.0;
    double peakRss = 0.0;
    double repairTime = 0.0;
};

CellResult
runCell(const Cell &cell)
{
    CellResult r;
    r.cell = cell;

    runtime::ExperimentConfig cfg;
    cfg.cluster.numNodes = cell.nodes;
    cfg.cluster.numClients = 0;
    cfg.stripes = cell.stripes;
    cfg.trace.reset();
    cfg.seed = 42;
    cfg.scanner.enabled = true;
    cfg.scanner.batchSize = 65536;
    cfg.scanner.tickInterval = 1.0;
    // Tight admission caps keep the cells comparable across cluster
    // sizes: in-flight repairs bound the incremental solver's dirty
    // component, so events/sec measures the scale-out layer rather
    // than max-min fill rounds over one cluster-wide flow component
    // (which the default 256-job cap produces at 1000+ nodes).
    cfg.scanner.queue.maxTotalJobs = 16;
    cfg.scanner.queue.maxNodeJobs = 2;

    // Standalone table with the runtime's exact seed derivation
    // (Rng(seed).split() feeds placement): measures the SoA memory
    // budget and predicts the repair workload of failing node 0.
    {
        Rng rng(cfg.seed);
        Rng placement = rng.split();
        cluster::StripeTable stripes(cfg.code, cell.nodes);
        stripes.createStripes(cell.stripes, placement);
        r.expectedChunks = static_cast<long long>(
            stripes.chunksOnNode(0).size());
        r.bytesPerStripe =
            static_cast<double>(stripes.memoryBytes()) /
            cell.stripes;
    }

    runtime::RuntimeOptions opts;
    opts.isolateTelemetry = true;
    runtime::Runtime rt(runtime::Algorithm::kCr, cfg, opts);
    const auto start = std::chrono::steady_clock::now();
    const runtime::ExperimentResult res = rt.run();
    r.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    r.chunksRepaired = res.chunksRepaired;
    r.unrecoverable = res.chunksUnrecoverable;
    r.repairTime = res.repairTime;
    const auto snap = rt.runTelemetry()->metrics.snapshot();
    if (const auto *ev = snap.find("sim.events_executed"))
        r.events = static_cast<long long>(ev->value);
    // Admission-scan work: scan_steps pays a helper-set derivation
    // (allocation + code-pool walk) per step; memo_skips are O(1)
    // saturation-memo hits. Their ratio explains where pop() time
    // goes when the queue is deep and node-saturated (the 50-node
    // cell: ~2.8k chunks queued behind maxNodeJobs=2 on 50 nodes,
    // 1.0M scans amortized by 3.9M memo skips).
    if (const auto *ss = snap.find("repair.queue.scan_steps"))
        r.queueScanSteps = static_cast<long long>(ss->value);
    if (const auto *ms = snap.find("repair.queue.memo_skips"))
        r.queueMemoSkips = static_cast<long long>(ms->value);
    // Solver work: flow visits per recompute is the per-event cost
    // knob. The 200-node cell's low events/sec is solver-bound, not
    // queue-bound — its (nodes, in-flight caps) point maximizes how
    // many repair flows share each max-min component, so every flow
    // completion re-rates a larger component than at 50 nodes
    // (fewer resources total) or 1000+ nodes (repairs spread out and
    // stop overlapping). See the bench description in the JSON.
    if (const auto *rr = snap.find("sim.rate_recomputes"))
        r.rateRecomputes = static_cast<long long>(rr->value);
    if (const auto *fv = snap.find("sim.rate_recompute_flow_visits"))
        r.recomputeFlowVisits = static_cast<long long>(fv->value);
    r.eventsPerSec = r.seconds > 0 ? r.events / r.seconds : 0.0;
    r.peakRss = peakRssBytes();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    init(argc, argv);
    const bool smoke = opts().smoke;

    // Smallest first so the peak-RSS high-water mark per row is the
    // row's own footprint.
    std::vector<Cell> cells;
    if (smoke) {
        cells = {{50, 2000}, {200, 5000}};
    } else {
        cells = {{50, 10000},
                 {200, 100000},
                 {1000, 1000000},
                 {5000, 1000000}};
    }

    const int budget_n = 14; // RS(10,4)
    ShapeChecker chk;
    std::vector<CellResult> results;
    std::printf("fig_scale: scanner-path repair at cluster scale%s\n",
                smoke ? " (smoke)" : "");
    for (const Cell &cell : cells) {
        CellResult r = runCell(cell);
        results.push_back(r);
        std::printf("  %5d nodes %8d stripes  %6lld chunks  "
                    "%9lld events  %8.0f ev/s  %5.1f B/stripe  "
                    "rss %6.0f MiB  qscan %lld qskip %lld  "
                    "fv/rr %.1f\n",
                    cell.nodes, cell.stripes, r.chunksRepaired,
                    r.events, r.eventsPerSec, r.bytesPerStripe,
                    r.peakRss / (1024.0 * 1024.0), r.queueScanSteps,
                    r.queueMemoSkips,
                    r.rateRecomputes > 0
                        ? static_cast<double>(r.recomputeFlowVisits) /
                              static_cast<double>(r.rateRecomputes)
                        : 0.0);
        const std::string label = std::to_string(cell.nodes) +
                                  "n/" +
                                  std::to_string(cell.stripes) + "s";
        chk.equals(label + " chunks repaired", r.chunksRepaired,
                   r.expectedChunks);
        chk.equals(label + " unrecoverable", r.unrecoverable, 0);
        chk.positive(label + " events/sec", r.eventsPerSec);
        chk.check(label + " bytes/stripe under budget (" +
                      std::to_string(r.bytesPerStripe) + " vs " +
                      std::to_string(16 * budget_n + 64) + ")",
                  r.bytesPerStripe <= 16.0 * budget_n + 64.0);
    }

    std::FILE *json = std::fopen("BENCH_scale.json", "w");
    if (json) {
        std::fprintf(
            json,
            "{\n"
            "  \"bench\": \"fig_scale\",\n"
            "  \"description\": \"scanner-path repair at cluster "
            "scale: events/sec, peak RSS, and StripeTable "
            "bytes/stripe per (nodes, stripes) cell. The 200-node "
            "cell's low events/sec is max-min-solver-bound, not "
            "queue-bound: recompute_flow_visits/rate_recomputes "
            "(deterministic) peaks there at 120.4 flows touched per "
            "recompute vs 50.4/32.1/6.2 at 50/1000/5000 nodes — at "
            "that (nodes, admission-cap) point concurrent repairs "
            "overlap into one large shared flow component, while 50 "
            "nodes has fewer resources total and 1000+ nodes spread "
            "repairs until they stop overlapping; queue work is "
            "negligible there (queue_scan_steps 37k over 5.8M "
            "events, vs 1.0M scans + 3.9M memo skips at 50 "
            "nodes)\",\n"
            "  \"smoke\": %s,\n"
            "  \"results\": [\n",
            smoke ? "true" : "false");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const CellResult &r = results[i];
            std::fprintf(
                json,
                "    {\"nodes\": %d, \"stripes\": %d,\n"
                "     \"chunks_repaired\": %lld,\n"
                "     \"events\": %lld,\n"
                "     \"queue_scan_steps\": %lld,\n"
                "     \"queue_memo_skips\": %lld,\n"
                "     \"rate_recomputes\": %lld,\n"
                "     \"recompute_flow_visits\": %lld,\n"
                "     \"wall_seconds\": %s,\n"
                "     \"events_per_sec\": %s,\n"
                "     \"sim_repair_seconds\": %s,\n"
                "     \"bytes_per_stripe\": %s,\n"
                "     \"peak_rss_bytes\": %s}%s\n",
                r.cell.nodes, r.cell.stripes, r.chunksRepaired,
                r.events, r.queueScanSteps, r.queueMemoSkips,
                r.rateRecomputes, r.recomputeFlowVisits,
                formatDouble(r.seconds).c_str(),
                formatDouble(r.eventsPerSec).c_str(),
                formatDouble(r.repairTime).c_str(),
                formatDouble(r.bytesPerStripe).c_str(),
                formatDouble(r.peakRss).c_str(),
                i + 1 < results.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n"
                     "  \"consistent\": %s\n"
                     "}\n",
                     chk.failed() ? "false" : "true");
        std::fclose(json);
        std::printf("wrote BENCH_scale.json\n");
    } else {
        std::fprintf(stderr, "cannot write BENCH_scale.json\n");
        return 1;
    }
    return chk.exitCode();
}
