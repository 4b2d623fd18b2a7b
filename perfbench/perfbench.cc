/**
 * @file
 * Entry point of the perfbench binary. run.py is the command users
 * run; it builds this binary and reads its record stream (see
 * workloads.hh). Usage:
 *
 *   perfbench --workload ycsb-paper|scale-chain|codec --seed N
 *             --seconds S [--passes N] [--short] [--layer-map FILE]
 *
 * Exit code: 0 when every check passed, 1 when a check failed, 2 on
 * a usage error.
 */

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "gf/gf256.hh"
#include "layer_trace.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

std::string
escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** VmHWM of this process in MB (10^6 bytes). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
    return 0.0;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("GCC ") + __VERSION__;
#else
    return "unknown";
#endif
}

int
usage(const std::string &err)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "ycsb-paper|scale-chain|codec --seed N --seconds S "
                 "[--passes N] [--short] [--layer-map FILE]\n",
                 err.c_str());
    return 2;
}

} // namespace

void
JsonLine::key(const std::string &k)
{
    if (body_.size() > 1)
        body_ += ", ";
    body_ += "\"" + escape(k) + "\": ";
}

JsonLine &
JsonLine::num(const std::string &k, double value)
{
    key(k);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body_ += std::isfinite(value) ? buf : "null";
    return *this;
}

JsonLine &
JsonLine::integer(const std::string &k, int64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonLine &
JsonLine::str(const std::string &k, const std::string &value)
{
    key(k);
    body_ += "\"" + escape(value) + "\"";
    return *this;
}

JsonLine &
JsonLine::raw(const std::string &k, const std::string &json)
{
    key(k);
    body_ += json;
    return *this;
}

void
JsonLine::emit() const
{
    std::printf("%s\n", text().c_str());
    std::fflush(stdout);
}

void
Checks::begin(const std::string &unit)
{
    unit_ = unit;
    unitFailed_ = false;
    ++attempted_;
}

void
Checks::expect(const std::string &what, bool ok)
{
    if (ok)
        return;
    std::fprintf(stderr, "perfbench: check failed: %s: %s\n",
                 unit_.c_str(), what.c_str());
    if (!unitFailed_)
        ++failed_;
    unitFailed_ = true;
}

Fingerprint &
Fingerprint::add(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull;
    }
    return *this;
}

Fingerprint &
Fingerprint::add(double v)
{
    return add(&v, sizeof(v));
}

Fingerprint &
Fingerprint::add(int64_t v)
{
    return add(&v, sizeof(v));
}

std::string
Fingerprint::hex() const
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    std::string layer_map;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        char *end = nullptr;
        if (arg == "--short") {
            opts.shortMode = true;
        } else if (arg == "--workload" && (v = value())) {
            opts.workload = v;
        } else if (arg == "--seed" && (v = value())) {
            opts.seed = std::strtoull(v, &end, 10);
            if (!*v || *end)
                return usage("--seed wants an integer");
        } else if (arg == "--seconds" && (v = value())) {
            opts.seconds = std::strtod(v, &end);
            if (!*v || *end || !(opts.seconds > 0))
                return usage("--seconds wants a positive number");
        } else if (arg == "--passes" && (v = value())) {
            opts.maxPasses = static_cast<int>(std::strtol(v, &end, 10));
            if (!*v || *end || opts.maxPasses < 1)
                return usage("--passes wants a positive integer");
        } else if (arg == "--layer-map" && (v = value())) {
            layer_map = v;
        } else {
            return usage("bad argument '" + arg + "'");
        }
    }
    if (!layer_map.empty()) {
        if (!PERFBENCH_TRACED)
            return usage("--layer-map needs the traced build");
        std::string err;
        if (!loadLayerMap(layer_map, err))
            return usage(err);
        opts.traced = true;
    }

    JsonLine()
        .str("kind", "meta")
        .str("workload", opts.workload)
        .raw("seed", std::to_string(opts.seed))
        .integer("short", opts.shortMode)
        .integer("traced", opts.traced)
        .integer("nproc", std::thread::hardware_concurrency())
        .str("compiler", compilerName())
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("gf_kernel", chameleon::gf::kernelName())
        .emit();

    Checks checks;
    if (!runWorkload(opts, checks))
        return usage("unknown workload '" + opts.workload + "'");

    JsonLine()
        .str("kind", "end")
        .num("peak_rss_mb", peakRssMb())
        .integer("attempted", checks.attempted())
        .integer("failed", checks.failed())
        .emit();
    return checks.failed() ? 1 : 0;
}
