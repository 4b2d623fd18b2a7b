/**
 * @file
 * Shared configuration, CLI flags, and table formatting for the
 * experiment bench binaries. Each binary reproduces one figure/table
 * of the paper (see DESIGN.md's experiment index and EXPERIMENTS.md
 * for the paper-vs-measured record) as a declarative table of sweep
 * cells executed by runtime::SweepRunner.
 *
 * Shared flags (parsed by init()):
 *   --smoke     tiny fixed-seed slice with shape checks (CTest)
 *   --list      print the binary's sweep cells without running
 *   --jobs N    worker threads (0 = hardware concurrency)
 *   --seed S    base seed; per-cell seeds derive via splitmix64
 *   --out FILE  write the table to FILE instead of stdout
 *   --fingerprint  print one `<label> <hash>` line per cell to stdout
 *               instead of the table (which goes to --out, or
 *               nowhere); tests/golden pins these hashes
 *
 * `--jobs 1` and `--jobs N` produce byte-identical tables; see
 * runtime/sweep.hh for the determinism contract.
 *
 * Scaling: the paper repairs 200 x 64 MB chunks with 1 MB slices and
 * replays 100k requests per client. To keep every binary's wall time
 * in seconds on one core, benches default to 60 chunks and 2 MB
 * slices and scale request budgets similarly. The scaling applies
 * identically to every algorithm in a table, so the comparisons and
 * trends the paper reports are preserved; each binary prints its
 * scale in the header.
 */

#ifndef CHAMELEON_BENCH_BENCH_COMMON_HH_
#define CHAMELEON_BENCH_BENCH_COMMON_HH_

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include <unistd.h>

#include "runtime/experiment.hh"
#include "runtime/sweep.hh"

namespace chameleon {
namespace bench {

/** The shared bench CLI, one instance per process (each bench binary
 * is its own process; sweep workers never write these). */
struct BenchOptions
{
    bool smoke = false;
    bool list = false;
    int jobs = 1;
    uint64_t seed = 0;
    std::string out;
    /** --fingerprint: where the per-cell hashes go (the process's
     * original stdout); null when the flag is absent. */
    std::FILE *fingerprints = nullptr;
};

inline BenchOptions &
opts()
{
    static BenchOptions o;
    return o;
}

/**
 * Parses the shared flags into `out`. Accepts `--flag value` and
 * `--flag=value`. Returns false with a message in `err` on an
 * unknown flag, missing value, or malformed number.
 */
inline bool
parseFlags(int argc, char **argv, BenchOptions &out, std::string &err)
{
    auto value = [&](int &i, const std::string &arg,
                     const char *name, std::string *val) {
        std::string prefix = std::string(name) + "=";
        if (arg.rfind(prefix, 0) == 0) {
            *val = arg.substr(prefix.size());
            return true;
        }
        if (arg != name)
            return false;
        if (i + 1 >= argc) {
            err = std::string(name) + " needs a value";
            *val = "";
            return true;
        }
        *val = argv[++i];
        return true;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string val;
        if (arg == "--smoke") {
            out.smoke = true;
        } else if (arg == "--fingerprint") {
            out.fingerprints = stdout;
        } else if (arg == "--list") {
            out.list = true;
        } else if (value(i, arg, "--jobs", &val)) {
            if (!err.empty())
                return false;
            char *end = nullptr;
            out.jobs = static_cast<int>(std::strtol(
                val.c_str(), &end, 10));
            if (val.empty() || *end) {
                err = "--jobs wants an integer, got '" + val + "'";
                return false;
            }
        } else if (value(i, arg, "--seed", &val)) {
            if (!err.empty())
                return false;
            char *end = nullptr;
            out.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end) {
                err = "--seed wants an integer, got '" + val + "'";
                return false;
            }
        } else if (value(i, arg, "--out", &val)) {
            if (!err.empty())
                return false;
            out.out = val;
        } else {
            err = "unknown flag '" + arg + "'";
            return false;
        }
    }
    return true;
}

/** Parses the shared bench CLI; call first in every main(). */
inline void
init(int argc, char **argv)
{
    BenchOptions parsed;
    std::string err;
    if (!parseFlags(argc, argv, parsed, err)) {
        std::fprintf(stderr,
                     "%s\nusage: %s [--smoke] [--list] [--jobs N] "
                     "[--seed S] [--out FILE] [--fingerprint]\n",
                     err.c_str(), argv[0]);
        std::exit(2);
    }
    if (parsed.fingerprints) {
        // The hashes keep the real stdout; the table moves to --out
        // or is dropped.
        const int fd = dup(fileno(stdout));
        parsed.fingerprints = fd < 0 ? nullptr : fdopen(fd, "w");
        if (!parsed.fingerprints) {
            std::fprintf(stderr, "cannot duplicate stdout for "
                                 "--fingerprint\n");
            std::exit(2);
        }
        if (parsed.out.empty())
            parsed.out = "/dev/null";
    }
    opts() = parsed;
    if (!parsed.out.empty() &&
        !std::freopen(parsed.out.c_str(), "w", stdout)) {
        std::fprintf(stderr, "cannot open --out file '%s'\n",
                     parsed.out.c_str());
        std::exit(2);
    }
}

/**
 * 64-bit FNV-1a over the exact bits of every ExperimentResult field
 * (ints widened to int64, doubles as stored, vectors prefixed by
 * their length), hashed the way perfbench fingerprints its cells, so
 * a one-ulp change anywhere in a result changes the hash.
 */
inline uint64_t
resultFingerprint(const runtime::ExperimentResult &r)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto bytes = [&h](const void *data, std::size_t len) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    };
    auto doubles = [&](std::initializer_list<double> vs) {
        for (double v : vs)
            bytes(&v, sizeof(v));
    };
    auto ints = [&](std::initializer_list<int64_t> vs) {
        for (int64_t v : vs)
            bytes(&v, sizeof(v));
    };
    auto latency = [&](const LatencySummary &s) {
        ints({static_cast<int64_t>(s.count)});
        doubles({s.mean, s.p50, s.p99, s.max});
    };
    ints({static_cast<int64_t>(r.algorithm)});
    doubles({r.repairThroughput, r.repairTime});
    ints({r.chunksRepaired, r.chunksUnrecoverable, r.crashReplans,
          r.chunksLostAtEnd, r.faultsInjected});
    doubles({r.p99LatencyMs, r.meanLatencyMs});
    latency(r.latency);
    doubles({r.traceTime});
    ints({r.phases, r.retunes, r.reorders, r.hedgesIssued,
          r.hedgeWins});
    latency(r.degradedLatency);
    ints({r.corruptionsInjected, r.corruptionsDetected,
          r.corruptionsRepaired, r.scrubEpochs});
    doubles({r.scrubBytes, r.meanDetectionLatency,
             r.maxDetectionLatency});
    for (const auto *links : {&r.uplinks, &r.downlinks}) {
        ints({static_cast<int64_t>(links->size())});
        for (const auto &l : *links) {
            ints({l.node});
            doubles({l.foregroundMean, l.repairMean,
                     l.foregroundFluctuation});
        }
    }
    for (const auto *series :
         {&r.throughputTimeline, &r.trafficTimeline}) {
        ints({static_cast<int64_t>(series->size())});
        for (double v : *series)
            doubles({v});
    }
    doubles({r.timelinePeriod});
    return h;
}

/**
 * Runs a declarative cell table through SweepRunner, honoring
 * --jobs/--seed; `emit` fires per cell on this thread, in table
 * order. Under --list, prints the table and exits instead. Under
 * --fingerprint, prints each cell's resultFingerprint() in table
 * order once the table has run.
 */
inline std::vector<runtime::ExperimentResult>
runCells(const std::vector<runtime::SweepCell> &cells,
         const runtime::SweepRunner::Emit &emit = {})
{
    if (opts().list) {
        std::printf("%zu cells:\n", cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i)
            std::printf("  [%3zu] %-44s %-14s seedIndex %d\n", i,
                        cells[i].label.c_str(),
                        runtime::algorithmName(cells[i].algorithm)
                            .c_str(),
                        cells[i].seedIndex);
        std::exit(0);
    }
    runtime::SweepOptions so;
    so.jobs = opts().jobs;
    so.baseSeed = opts().seed;
    runtime::SweepRunner runner(so);
    auto results = runner.run(cells, emit);
    if (std::FILE *out = opts().fingerprints) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            std::fprintf(out, "%s %016" PRIx64 "\n",
                         cells[c].label.c_str(),
                         resultFingerprint(results[c]));
        std::fflush(out);
    }
    return results;
}

/** Chunks repaired per cell (paper: 200). */
inline constexpr int kBenchChunks = 60;

/** Smoke-mode chunk count: enough for a real repair window while
 * keeping each cell well under a second. */
inline constexpr int kSmokeChunks = 6;

/** Chunks per cell honoring --smoke; `full` overrides the default
 * full-scale count. */
inline int
benchChunks(int full = kBenchChunks)
{
    return opts().smoke ? kSmokeChunks : full;
}

/**
 * Collects named pass/fail shape checks and renders them as a
 * compact report; exitCode() feeds main's return so CTest sees
 * failures.
 */
class ShapeChecker
{
  public:
    void check(const std::string &what, bool ok)
    {
        std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
        if (!ok)
            failed_ = true;
    }

    /** check() with the measured value appended to the label. */
    void positive(const std::string &what, double value)
    {
        check(what + " > 0 (got " + std::to_string(value) + ")",
              value > 0);
    }

    void equals(const std::string &what, long long got,
                long long want)
    {
        check(what + " == " + std::to_string(want) + " (got " +
                  std::to_string(got) + ")",
              got == want);
    }

    bool failed() const { return failed_; }
    int exitCode() const { return failed_ ? 1 : 0; }

  private:
    bool failed_ = false;
};

/** Slice size used by benches (paper: 1 MB). */
inline constexpr Bytes kBenchSlice = 2 * units::MiB;

/** Baseline experiment config at the paper's Section V-A settings
 * (scaled per the file comment). */
inline runtime::ExperimentConfig
defaultConfig()
{
    runtime::ExperimentConfig cfg;
    cfg.chunksToRepair = kBenchChunks;
    cfg.exec.sliceSize = kBenchSlice;
    cfg.trace = traffic::ycsbA();
    cfg.seed = 42;
    return cfg;
}

/** Builds one sweep cell on top of defaultConfig(). */
inline runtime::SweepCell
makeCell(const std::string &label, runtime::Algorithm algorithm,
         int seedIndex = -1,
         const std::function<void(runtime::ExperimentConfig &)>
             &tweak = {})
{
    runtime::SweepCell cell;
    cell.label = label;
    cell.algorithm = algorithm;
    cell.config = defaultConfig();
    cell.seedIndex = seedIndex;
    if (tweak)
        tweak(cell.config);
    return cell;
}

/** The four baseline-vs-Chameleon comparison algorithms. */
inline std::vector<runtime::Algorithm>
comparisonAlgorithms()
{
    using runtime::Algorithm;
    return {Algorithm::kCr, Algorithm::kPpr, Algorithm::kEcpipe,
            Algorithm::kChameleon};
}

inline void
printHeader(const std::string &title, const std::string &setup)
{
    std::printf("==================================================="
                "=============\n");
    std::printf("%s\n", title.c_str());
    std::printf("setup: %s\n", setup.c_str());
    std::printf("scale: %d chunks x 64 MiB, %.0f MiB slices "
                "(paper: 200 x 64 MiB, 1 MiB)\n",
                kBenchChunks, kBenchSlice / units::MiB);
    std::printf("==================================================="
                "=============\n");
}

inline void
printRow(const std::string &label, double tput_mbs, double p99_ms)
{
    std::printf("  %-16s repair throughput %7.1f MB/s   P99 %6.1f ms\n",
                label.c_str(), tput_mbs, p99_ms);
}

/** Latency detail line beneath a printRow() (one sorted pass; see
 * LatencyRecorder::summary()). Summary values are in seconds. */
inline void
printLatencyDetail(const LatencySummary &s)
{
    std::printf("      latency mean %6.1f ms  P50 %6.1f ms  "
                "P99 %6.1f ms  max %6.1f ms  (%zu requests)\n",
                s.mean * 1e3, s.p50 * 1e3, s.p99 * 1e3, s.max * 1e3,
                s.count);
}

/**
 * Shared smoke-mode body: runs one tiny fixed-seed cell per
 * algorithm — through SweepRunner, so --smoke --jobs 2 exercises the
 * concurrent path — and applies the checks every repair experiment
 * must pass (positive throughput, every lost chunk repaired or
 * reported unrecoverable). `tweak` edits the cell config; `extra`
 * adds binary-specific checks. Returns main()'s exit code.
 */
inline int
runSmoke(const std::string &name,
         const std::vector<runtime::Algorithm> &algos,
         const std::function<void(runtime::ExperimentConfig &)>
             &tweak = {},
         const std::function<void(ShapeChecker &,
                                  runtime::Algorithm,
                                  const runtime::ExperimentResult &)>
             &extra = {})
{
    std::printf("%s --smoke: %d chunks, seed 7, jobs %d\n",
                name.c_str(), kSmokeChunks, opts().jobs);
    std::vector<runtime::SweepCell> cells;
    for (auto algo : algos) {
        auto cell = makeCell(runtime::algorithmName(algo), algo);
        cell.config.chunksToRepair = kSmokeChunks;
        cell.config.seed = 7;
        // Pin the historical smoke seed even under --seed.
        cell.deriveSeed = false;
        if (tweak)
            tweak(cell.config);
        cells.push_back(std::move(cell));
    }
    ShapeChecker chk;
    runCells(cells, [&](std::size_t, const runtime::SweepCell &cell,
                        const runtime::ExperimentResult &r) {
        const std::string &label = cell.label;
        chk.positive(label + " repair throughput MB/s",
                     r.repairThroughput / 1e6);
        chk.positive(label + " repair time s", r.repairTime);
        // >= because multi-node failure cells lose extra chunks
        // beyond node 0's.
        chk.check(label + " chunks accounted for (" +
                      std::to_string(r.chunksRepaired) +
                      " repaired + " +
                      std::to_string(r.chunksUnrecoverable) +
                      " unrecoverable vs " +
                      std::to_string(cell.config.chunksToRepair) +
                      " lost)",
                  r.chunksRepaired + r.chunksUnrecoverable >=
                      cell.config.chunksToRepair);
        if (extra)
            extra(chk, cell.algorithm, r);
    });
    return chk.exitCode();
}

} // namespace bench
} // namespace chameleon

#endif // CHAMELEON_BENCH_BENCH_COMMON_HH_
