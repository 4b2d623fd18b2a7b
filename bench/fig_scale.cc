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
 * (so the reverse index holds node 0's list only: about 2*n + 14
 * bytes/stripe, 42 at RS(10,4)), is also measured against its
 * documented <= 12*n + 32 bytes/stripe budget.
 *
 * A full run times each cell's Runtime::run three times, each on a
 * fresh Runtime, and records wall seconds and events/sec as the
 * median with min and max; every run must repeat the first one's
 * events, chunks, and solver and queue counters exactly. --smoke
 * times each cell once.
 *
 * Results go to BENCH_scale.json (events/sec and peak-RSS rows, in
 * the micro_sim style). Exit code: non-zero if any cell fails its
 * checks; the rates are recorded, not asserted.
 */

#include <algorithm>
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

/** What one timed run of a cell reports; everything but the wall
 * time is deterministic. */
struct RunCounters
{
    long long chunksRepaired = 0;
    long long unrecoverable = 0;
    long long events = 0;
    long long queueScanSteps = 0;
    long long queueMemoSkips = 0;
    long long rateRecomputes = 0;
    long long recomputeFlowVisits = 0;
    double repairTime = 0.0;

    bool operator==(const RunCounters &o) const = default;
};

struct CellResult
{
    Cell cell;
    long long expectedChunks = 0;
    RunCounters counters;
    /** Runs after the first whose counters differ from its. */
    int divergentRuns = 0;
    /** Wall seconds of each timed run, sorted ascending. */
    std::vector<double> seconds;
    double bytesPerStripe = 0.0;
    double peakRss = 0.0;

    double medianSeconds() const { return seconds[seconds.size() / 2]; }
    double eventsPerSec(double secs) const
    {
        return secs > 0 ? counters.events / secs : 0.0;
    }
};

/** One fresh Runtime::run of `cfg`, timed. */
RunCounters
timedRun(const runtime::ExperimentConfig &cfg, double *seconds)
{
    runtime::RuntimeOptions opts;
    opts.isolateTelemetry = true;
    runtime::Runtime rt(runtime::Algorithm::kCr, cfg, opts);
    const auto start = std::chrono::steady_clock::now();
    const runtime::ExperimentResult res = rt.run();
    *seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    RunCounters r;
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
    return r;
}

CellResult
runCell(const Cell &cell, int timed_runs)
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

    for (int run = 0; run < timed_runs; ++run) {
        double secs = 0.0;
        const RunCounters counters = timedRun(cfg, &secs);
        if (run == 0)
            r.counters = counters;
        else if (!(counters == r.counters))
            ++r.divergentRuns;
        r.seconds.push_back(secs);
    }
    std::sort(r.seconds.begin(), r.seconds.end());
    r.peakRss = peakRssBytes();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    init(argc, argv);
    const bool smoke = opts().smoke;
    const int timed_runs = smoke ? 1 : 3;

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

    // RS(10,4): the documented every-node budget of 12*n + 32.
    const double budget = 12.0 * 14 + 32.0;
    ShapeChecker chk;
    std::vector<CellResult> results;
    std::printf("fig_scale: scanner-path repair at cluster scale%s\n",
                smoke ? " (smoke)" : "");
    for (const Cell &cell : cells) {
        CellResult r = runCell(cell, timed_runs);
        results.push_back(r);
        const RunCounters &c = r.counters;
        std::printf("  %5d nodes %8d stripes  %6lld chunks  "
                    "%9lld events  %8.0f ev/s [%.0f-%.0f]  "
                    "%5.1f B/stripe  rss %6.0f MiB  qscan %lld "
                    "qskip %lld  fv/rr %.1f\n",
                    cell.nodes, cell.stripes, c.chunksRepaired,
                    c.events, r.eventsPerSec(r.medianSeconds()),
                    r.eventsPerSec(r.seconds.back()),
                    r.eventsPerSec(r.seconds.front()),
                    r.bytesPerStripe, r.peakRss / (1024.0 * 1024.0),
                    c.queueScanSteps, c.queueMemoSkips,
                    c.rateRecomputes > 0
                        ? static_cast<double>(c.recomputeFlowVisits) /
                              static_cast<double>(c.rateRecomputes)
                        : 0.0);
        const std::string label = std::to_string(cell.nodes) +
                                  "n/" +
                                  std::to_string(cell.stripes) + "s";
        chk.equals(label + " chunks repaired", c.chunksRepaired,
                   r.expectedChunks);
        chk.equals(label + " unrecoverable", c.unrecoverable, 0);
        chk.positive(label + " events/sec",
                     r.eventsPerSec(r.medianSeconds()));
        chk.equals(label + " timed runs whose events, chunks or "
                           "solver/queue counters differ from the "
                           "first run's",
                   r.divergentRuns, 0);
        chk.check(label + " bytes/stripe under budget (" +
                      std::to_string(r.bytesPerStripe) + " vs " +
                      std::to_string(budget) + ")",
                  r.bytesPerStripe <= budget);
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
            "nodes). wall_seconds and events_per_sec are the "
            "median of timed_runs fresh runs, with min and max\",\n"
            "  \"smoke\": %s,\n"
            "  \"timed_runs\": %d,\n"
            "  \"results\": [\n",
            smoke ? "true" : "false", timed_runs);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const CellResult &r = results[i];
            const RunCounters &c = r.counters;
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
                "     \"wall_seconds_min\": %s,\n"
                "     \"wall_seconds_max\": %s,\n"
                "     \"events_per_sec\": %s,\n"
                "     \"events_per_sec_min\": %s,\n"
                "     \"events_per_sec_max\": %s,\n"
                "     \"sim_repair_seconds\": %s,\n"
                "     \"bytes_per_stripe\": %s,\n"
                "     \"peak_rss_bytes\": %s}%s\n",
                r.cell.nodes, r.cell.stripes, c.chunksRepaired,
                c.events, c.queueScanSteps, c.queueMemoSkips,
                c.rateRecomputes, c.recomputeFlowVisits,
                formatDouble(r.medianSeconds()).c_str(),
                formatDouble(r.seconds.front()).c_str(),
                formatDouble(r.seconds.back()).c_str(),
                formatDouble(r.eventsPerSec(r.medianSeconds())).c_str(),
                formatDouble(r.eventsPerSec(r.seconds.back())).c_str(),
                formatDouble(r.eventsPerSec(r.seconds.front())).c_str(),
                formatDouble(c.repairTime).c_str(),
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
