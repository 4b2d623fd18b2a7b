/**
 * @file
 * Command-line experiment runner: configure a cluster, a code, a
 * foreground trace (built-in profile or a trace file), pick repair
 * algorithms, and get the paper's metrics — without writing C++.
 *
 * The configuration lives in a runtime::ScenarioSpec, so a run is
 * round-trippable: --dump-scenario prints the effective scenario as
 * JSON, --scenario loads one back (later flags override it), and
 * --jobs N executes the algorithm list concurrently through
 * runtime::SweepRunner with output identical to --jobs 1.
 *
 *   chameleon_sim --algo cr,chameleon --trace ycsb-a --chunks 60
 *   chameleon_sim --code lrc:10,2,2 --link-gbps 5 --disk-mbps 250
 *   chameleon_sim --trace-file my.trace --straggler 5:0.05:15
 *   chameleon_sim --scenario examples/scenarios/sweep.json --jobs 4
 *   chameleon_sim --dump-scenario > my_scenario.json
 *   chameleon_sim --help
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "ec/factory.hh"
#include "fault/fault.hh"
#include "runtime/runtime.hh"
#include "runtime/scenario.hh"
#include "runtime/sweep.hh"
#include "telemetry/telemetry.hh"
#include "traffic/trace_file.hh"

using namespace chameleon;
using namespace chameleon::runtime;

namespace {

[[noreturn]] void
usage(int exit_code)
{
    std::printf(R"(chameleon_sim — run a ChameleonEC repair experiment

Options (defaults in brackets):
  --algo LIST        comma list of cr,ppr,ecpipe,rb-cr,rb-ppr,
                     rb-ecpipe,etrp,chameleon,chameleon-io
                     [cr,ppr,ecpipe,chameleon]
  --scenario PATH    load a scenario JSON file (see --dump-scenario);
                     flags after --scenario override its fields
  --dump-scenario    print the effective scenario as JSON and exit
  --jobs N           run the algorithm list on N sweep workers
                     (0 = hardware concurrency); output is identical
                     to --jobs 1  [1]
  --code SPEC        rs(K,M) | lrc(K,L,M) | lrc(K,L,G,M) | butterfly
                     | rep(N), or the legacy "family:args" spelling;
                     see --list-codes  [rs:10,4]
  --list-codes       print the registered code families (grammar and
                     capability summary) and exit
  --trace NAME       ycsb-a|ibm|memcached|etc|none  [ycsb-a]
  --trace-file PATH  replay a '<op> <key> <bytes>' trace file
  --chunks N         chunks to repair  [60]
  --nodes N          storage nodes  [20]
  --clients N        foreground client instances  [4]
  --failed N         failed nodes  [1]
  --link-gbps X      sustained link bandwidth  [2.5]
  --racks N          racks (0 = flat topology)  [0]
  --oversub X        rack aggregation oversubscription  [1]
  --disk-mbps X      disk bandwidth  [500]
  --chunk-mib X      chunk size  [64]
  --slice-mib X      slice size  [2]
  --slices N         split each chunk into exactly N pipeline slices
                     (overrides --slice-mib; 0 = derive from it)  [0]
  --topology KEY     execution-topology override for the session
                     algorithms (cr/ppr/ecpipe/rb-*): auto|star|
                     chain|ppr|mlf:F, executed slice-pipelined
                     through the repair DAG  [auto]
  --tphase X         ChameleonEC phase length (s)  [20]
  --straggler T:F:D  throttle a participating node to fraction F
                     for D seconds, T seconds after repair starts
                     (repeatable)
  --faults SPEC      inject faults mid-repair; SPEC is semicolon-
                     separated kind@T[:node=N][:factor=F][:dur=D]
                     with kind crash|slowdisk|linkdeg|blackout|bitrot
                     and T seconds after repair starts, e.g.
                     "crash@5:dur=40;linkdeg@10:factor=0.2:dur=15"
  --chaos-rate X     sample a random fault schedule at X events/s
                     (split across kinds)  [0 = off]
  --chaos-seed N     chaos schedule seed  [derived from --seed]
  --chaos-horizon X  chaos window length (s)  [120]
  --bitrot-rate X    silent bit-rot corruptions at X events/s within
                     the chaos window  [0 = off]
  --degraded         route repairs through the hedged degraded-read
                     manager (session algorithms only)
  --no-hedge         degraded baseline: single attempt, no hedging
  --hedge-mult X     hedge timer = X * estimated completion  [1.5]
  --hedge-delay X    minimum hedge timer (s)  [0.5]
  --max-hedges N     hedged attempts per read  [1]
  --scrub            enable background integrity scrubbing (and the
                     executor verify-on-read/after-decode hooks)
  --scrub-mbps X     scrub read bandwidth  [64]
  --scrub-adaptive   back scrubbing off on foreground-busy disks
  --no-verify-reads  disable verify-on-read of repair helpers
  --no-verify-decode disable verify-after-decode of repaired chunks
  --seed N           RNG seed  [42]
  --trace-out PATH   write a Chrome/Perfetto trace (chrome://tracing,
                     https://ui.perfetto.dev) of every run
  --trace-jsonl PATH write the event stream as JSON lines
  --phase-csv PATH   write per-phase scheduler stats as CSV
  --metrics-out PATH write the final metrics snapshot as JSON
  --quiet            suppress the human-readable result table
  --help             this text
)");
    std::exit(exit_code);
}

std::vector<std::string>
splitList(const std::string &arg, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : arg) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

/** Rejects a flag's value: prints "<flag>: <reason>" and exits 2. */
[[noreturn]] void
reject(const std::string &flag, const std::string &reason)
{
    std::fprintf(stderr, "%s: %s\n", flag.c_str(), reason.c_str());
    std::exit(2);
}

/**
 * Parses the whole of `text` as a T: no surrounding space, no '+',
 * no sign at all for unsigned T, and within T's range. Range rules
 * of the experiment itself are ExperimentConfig::validate's job.
 */
template <typename T>
T
flagNumber(const std::string &flag, const char *text)
{
    const char *want = std::is_floating_point_v<T> ? "a number"
                       : std::is_signed_v<T>       ? "an integer"
                                                   : "a non-negative integer";
    T value{};
    const char *end = text + std::strlen(text);
    const auto [stop, ec] = std::from_chars(text, end, value);
    if (ec == std::errc::result_out_of_range)
        reject(flag, std::string("'") + text + "' is out of range");
    if (ec != std::errc() || stop != end)
        reject(flag, std::string("'") + text + "' is not " + want);
    return value;
}

Algorithm
parseAlgorithm(const std::string &name)
{
    auto algo = algorithmFromKey(name);
    if (!algo)
        reject("--algo", "unknown algorithm '" + name + "'");
    return *algo;
}

StragglerEvent
parseStraggler(const std::string &spec)
{
    auto parts = splitList(spec, ':');
    if (parts.size() != 3)
        reject("--straggler", "'" + spec + "' is not T:FRACTION:DURATION");
    StragglerEvent ev;
    ev.at = flagNumber<double>("--straggler", parts[0].c_str());
    ev.node = kInvalidNode; // auto-pick a participating node
    ev.factor = flagNumber<double>("--straggler", parts[1].c_str());
    ev.duration = flagNumber<double>("--straggler", parts[2].c_str());
    return ev;
}

/**
 * Publishes one experiment's results as `experiment.<algo>.*` gauges
 * so --metrics-out emits a machine-readable results table alongside
 * the internal instrumentation counters.
 */
void
publishResult(Algorithm algo, const ExperimentResult &r)
{
    auto &reg = telemetry::metrics();
    const std::string base = "experiment." + algorithmKey(algo) + ".";
    reg.gauge(base + "repair_mbps").set(r.repairThroughput / 1e6);
    reg.gauge(base + "repair_time_s").set(r.repairTime);
    reg.gauge(base + "chunks").set(r.chunksRepaired);
    reg.gauge(base + "p99_ms").set(r.p99LatencyMs);
    reg.gauge(base + "mean_ms").set(r.meanLatencyMs);
    reg.gauge(base + "phases").set(r.phases);
    reg.gauge(base + "retunes").set(r.retunes);
    reg.gauge(base + "reorders").set(r.reorders);
    reg.gauge(base + "unrecoverable").set(r.chunksUnrecoverable);
    reg.gauge(base + "crash_replans").set(r.crashReplans);
    reg.gauge(base + "faults_injected").set(r.faultsInjected);
    reg.gauge(base + "corruptions_injected")
        .set(r.corruptionsInjected);
    reg.gauge(base + "corruptions_detected")
        .set(r.corruptionsDetected);
    reg.gauge(base + "corruptions_repaired")
        .set(r.corruptionsRepaired);
    reg.gauge(base + "scrub_epochs").set(r.scrubEpochs);
    reg.gauge(base + "scrub_mb").set(r.scrubBytes / 1e6);
    reg.gauge(base + "hedges").set(r.hedgesIssued);
    reg.gauge(base + "hedge_wins").set(r.hedgeWins);
    reg.gauge(base + "degraded_p99_ms")
        .set(r.degradedLatency.p99 * 1e3);
}

/** Prints one result row from the published metrics snapshot so the
 * table and --metrics-out can never disagree. */
void
printResultRow(Algorithm algo, const ExperimentConfig &cfg,
               const ExperimentResult &r)
{
    auto snap = telemetry::metrics().snapshot();
    const std::string base = "experiment." + algorithmKey(algo) + ".";
    auto value = [&](const char *leaf) {
        const auto *s = snap.find(base + leaf);
        return s ? s->value : 0.0;
    };
    std::printf("%-14s repair %7.1f MB/s in %7.1f s",
                algorithmName(algo).c_str(), value("repair_mbps"),
                value("repair_time_s"));
    if (cfg.trace)
        std::printf("   P99 %8.1f ms", value("p99_ms"));
    if (r.phases)
        std::printf("   phases %.0f retunes %.0f reorders %.0f",
                    value("phases"), value("retunes"),
                    value("reorders"));
    if (r.faultsInjected)
        std::printf("   faults %.0f replans %.0f unrecoverable %.0f",
                    value("faults_injected"), value("crash_replans"),
                    value("unrecoverable"));
    if (cfg.scrub.enabled)
        std::printf("   rot %.0f/%.0f detected, %.0f re-repaired",
                    value("corruptions_detected"),
                    value("corruptions_injected"),
                    value("corruptions_repaired"));
    if (cfg.degraded.enabled)
        std::printf("   degraded P99 %8.1f ms, hedges %.0f won %.0f",
                    value("degraded_p99_ms"), value("hedges"),
                    value("hedge_wins"));
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    ScenarioSpec spec;
    spec.chunksToRepair = 60;
    spec.exec.sliceSize = 2 * units::MiB;
    spec.trace = "ycsb-a";
    spec.seed = 42;
    std::vector<Algorithm> algos = {Algorithm::kCr, Algorithm::kPpr,
                                    Algorithm::kEcpipe,
                                    Algorithm::kChameleon};
    bool algos_from_flag = false;
    bool quiet = false;
    bool dump_scenario = false;
    int jobs = 1;
    // --trace-file profiles have no scenario-JSON spelling; the
    // override is applied after the spec materializes.
    std::optional<traffic::TraceProfile> trace_file_override;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        // The flag's value; moves i past it.
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                reject(flag, "needs a value");
            return argv[++i];
        };
        if (flag == "--help" || flag == "-h") {
            usage(0);
        } else if (flag == "--algo") {
            algos.clear();
            for (const auto &name : splitList(next(), ','))
                algos.push_back(parseAlgorithm(name));
            algos_from_flag = true;
        } else if (flag == "--scenario") {
            const std::string path = next();
            std::ifstream in(path);
            if (!in)
                reject(flag, "cannot read '" + path + "'");
            std::ostringstream text;
            text << in.rdbuf();
            std::string err;
            auto loaded = ScenarioSpec::fromJson(text.str(), &err);
            if (!loaded)
                reject(flag, "bad scenario '" + path + "': " + err);
            spec = *loaded;
            if (!algos_from_flag)
                algos = {spec.algorithm};
        } else if (flag == "--dump-scenario") {
            dump_scenario = true;
        } else if (flag == "--jobs") {
            jobs = flagNumber<int>(flag, next());
        } else if (flag == "--list-codes") {
            for (const auto &fam : ec::registeredCodecs())
                std::printf("%-12s %-28s %s\n", fam.key.c_str(),
                            fam.grammar.c_str(),
                            fam.summary.c_str());
            return 0;
        } else if (flag == "--code") {
            spec.code = next();
            std::string err;
            if (!ec::tryMakeCode(spec.code, &err))
                reject(flag, err);
        } else if (flag == "--trace") {
            spec.trace = next();
            std::optional<traffic::TraceProfile> probe;
            std::string err;
            if (!tryResolveTrace(spec.trace, &probe, &err))
                reject(flag, err);
        } else if (flag == "--trace-file") {
            const char *path = next();
            trace_file_override = traffic::profileFromRecords(
                path, traffic::loadTraceFile(path));
        } else if (flag == "--chunks") {
            spec.chunksToRepair = flagNumber<int>(flag, next());
        } else if (flag == "--nodes") {
            spec.cluster.numNodes = flagNumber<int>(flag, next());
        } else if (flag == "--clients") {
            spec.cluster.numClients = flagNumber<int>(flag, next());
        } else if (flag == "--failed") {
            spec.failedNodes = flagNumber<int>(flag, next());
        } else if (flag == "--racks") {
            spec.cluster.racks = flagNumber<int>(flag, next());
        } else if (flag == "--oversub") {
            spec.cluster.rackOversubscription =
                flagNumber<double>(flag, next());
        } else if (flag == "--link-gbps") {
            spec.cluster.uplinkBw = flagNumber<double>(flag, next()) *
                                    units::Gbps;
            spec.cluster.downlinkBw = spec.cluster.uplinkBw;
        } else if (flag == "--disk-mbps") {
            spec.cluster.diskBw = flagNumber<double>(flag, next()) *
                                  units::MBps;
        } else if (flag == "--chunk-mib") {
            spec.exec.chunkSize = flagNumber<double>(flag, next()) *
                                  units::MiB;
        } else if (flag == "--slice-mib") {
            spec.exec.sliceSize = flagNumber<double>(flag, next()) *
                                  units::MiB;
        } else if (flag == "--slices") {
            spec.exec.slices = flagNumber<int>(flag, next());
        } else if (flag == "--topology") {
            std::string err;
            auto topo = dag::topologyFromKey(next(), &err);
            if (!topo)
                reject(flag, err);
            spec.topology = *topo;
        } else if (flag == "--tphase") {
            spec.chameleon.tPhase = flagNumber<double>(flag, next());
        } else if (flag == "--straggler") {
            spec.stragglers.push_back(parseStraggler(next()));
        } else if (flag == "--faults") {
            std::string err;
            auto faults = fault::FaultSchedule::tryParse(next(), &err);
            if (!faults)
                reject(flag, err);
            spec.faults = std::move(*faults);
        } else if (flag == "--chaos-rate") {
            spec.chaosRate = flagNumber<double>(flag, next());
        } else if (flag == "--chaos-seed") {
            spec.chaosSeed = flagNumber<uint64_t>(flag, next());
        } else if (flag == "--chaos-horizon") {
            spec.chaosHorizon = flagNumber<double>(flag, next());
        } else if (flag == "--bitrot-rate") {
            spec.bitrotRate = flagNumber<double>(flag, next());
        } else if (flag == "--degraded") {
            spec.degraded.enabled = true;
        } else if (flag == "--no-hedge") {
            spec.degraded.hedge = false;
        } else if (flag == "--hedge-mult") {
            spec.degraded.hedgeMultiplier = flagNumber<double>(flag, next());
        } else if (flag == "--hedge-delay") {
            spec.degraded.hedgeMinDelay = flagNumber<double>(flag, next());
        } else if (flag == "--max-hedges") {
            spec.degraded.maxHedges = flagNumber<int>(flag, next());
        } else if (flag == "--scrub") {
            spec.scrub.enabled = true;
        } else if (flag == "--scrub-mbps") {
            spec.scrub.rate = flagNumber<double>(flag, next()) * units::MiB;
        } else if (flag == "--scrub-adaptive") {
            spec.scrub.adaptive = true;
        } else if (flag == "--no-verify-reads") {
            spec.scrub.verifyReads = false;
        } else if (flag == "--no-verify-decode") {
            spec.scrub.verifyDecode = false;
        } else if (flag == "--seed") {
            spec.seed = flagNumber<uint64_t>(flag, next());
        } else if (flag == "--trace-out") {
            telemetry::setTraceOutput(next());
        } else if (flag == "--trace-jsonl") {
            telemetry::setJsonlOutput(next());
        } else if (flag == "--phase-csv") {
            telemetry::setPhaseCsvOutput(next());
        } else if (flag == "--metrics-out") {
            telemetry::setMetricsOutput(next());
        } else if (flag == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
            usage(2);
        }
    }

    // Flags skip fromJson's checks: validate the config that will
    // run, once per algorithm it will run as, so a bad flag exits 2
    // instead of panicking inside the Runtime.
    ExperimentConfig cfg = spec.toConfig();
    if (trace_file_override)
        cfg.trace = trace_file_override;
    for (auto algo : algos) {
        std::string err;
        if (!cfg.validate(algo, &err, spec.code)) {
            std::fprintf(stderr, "invalid configuration for '%s': %s\n",
                         algorithmKey(algo).c_str(), err.c_str());
            return 2;
        }
    }

    if (dump_scenario) {
        if (algos.size() == 1)
            spec.algorithm = algos[0];
        std::fputs(spec.toJson().c_str(), stdout);
        return 0;
    }

    if (!quiet) {
        std::printf("cluster: %d nodes, %d clients, %.2f Gb/s links, "
                    "%.0f MB/s disks; code %s; %d chunks x %.0f MiB; "
                    "trace %s; seed %llu\n\n",
                    cfg.cluster.numNodes, cfg.cluster.numClients,
                    cfg.cluster.uplinkBw * 8 / 1e9,
                    cfg.cluster.diskBw / 1e6, cfg.code->name().c_str(),
                    cfg.chunksToRepair,
                    cfg.exec.chunkSize / units::MiB,
                    cfg.trace ? cfg.trace->name.c_str() : "none",
                    static_cast<unsigned long long>(cfg.seed));
    }

    if (jobs == 1) {
        // Single-worker path: run in the process-default telemetry
        // context, exactly as before the sweep executor existed.
        for (auto algo : algos) {
            auto r = runExperiment(algo, cfg);
            publishResult(algo, r);
            if (!quiet)
                printResultRow(algo, cfg, r);
        }
    } else {
        // Sweep path: isolated per-run telemetry contexts, merged
        // into the process context in cell order, so the table and
        // every --*-out file match the --jobs 1 run byte for byte.
        std::vector<SweepCell> cells;
        for (auto algo : algos) {
            SweepCell cell;
            cell.label = algorithmName(algo);
            cell.algorithm = algo;
            cell.config = cfg;
            cell.seedIndex = 0; // one workload, many algorithms
            cells.push_back(std::move(cell));
        }
        SweepOptions so;
        so.jobs = jobs;
        SweepRunner runner(so);
        runner.run(cells, [&](std::size_t, const SweepCell &cell,
                              const ExperimentResult &r) {
            publishResult(cell.algorithm, r);
            if (!quiet)
                printResultRow(cell.algorithm, cfg, r);
        });
    }
    telemetry::flush();
    return 0;
}
