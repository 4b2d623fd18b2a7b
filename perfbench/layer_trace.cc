/**
 * @file
 * The -finstrument-functions hooks and the span sampler behind
 * layer_trace.hh.
 */

#include "layer_trace.hh"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <vector>

#define PERFBENCH_NO_INSTRUMENT __attribute__((no_instrument_function))

extern "C" void __cyg_profile_func_enter(void *fn, void *call_site);
extern "C" void __cyg_profile_func_exit(void *fn, void *call_site);

namespace perfbench {
namespace {

constexpr const char *kLayerNames[kLayerCount] = {
    "runtime",     "sim.solver",    "sim.events",
    "repair.exec", "repair.sched",  "cluster.table",
    "traffic",     "ec.repair",     "telemetry",
};

constexpr long kSamplePeriodNs =
    static_cast<long>(kSamplePeriodSeconds * 1e9 + 0.5);

/** Open-addressing map from function address to layer. */
struct AddressMap
{
    std::vector<uintptr_t> keys;
    std::vector<uint8_t> layers;
    uintptr_t mask = 0;

    void init(std::size_t entries)
    {
        std::size_t cap = 1024;
        while (cap < 4 * entries)
            cap *= 2;
        keys.assign(cap, 0);
        layers.assign(cap, 0);
        mask = cap - 1;
    }

    static PERFBENCH_NO_INSTRUMENT std::size_t hash(uintptr_t key)
    {
        return static_cast<std::size_t>((key >> 4) *
                                        0x9E3779B97F4A7C15ull >> 20);
    }

    void insert(uintptr_t key, uint8_t layer)
    {
        std::size_t i = hash(key) & mask;
        while (keys[i] != 0 && keys[i] != key)
            i = (i + 1) & mask;
        keys[i] = key;
        layers[i] = layer;
    }

    PERFBENCH_NO_INSTRUMENT uint8_t find(uintptr_t key) const
    {
        std::size_t i = hash(key) & mask;
        while (keys[i] != 0) {
            if (keys[i] == key)
                return layers[i];
            i = (i + 1) & mask;
        }
        return static_cast<uint8_t>(Layer::kRuntime);
    }
};

/** One open span: `depth` counts same-layer calls nested in it. */
struct Frame
{
    uint8_t layer = 0;
    uint32_t depth = 0;
};

constexpr std::size_t kMaxFrames = 1 << 16;

AddressMap gMap;
bool gActive = false;
Frame gStack[kMaxFrames];
std::size_t gTop = 0;
/** Set while a hook edits the stack; the sampler then neither reads
 * the stack nor charges a layer. */
volatile std::sig_atomic_t gInHook = 0;
uint64_t gSamples[kLayerCount] = {};
uint64_t gHookSamples = 0;
timer_t gTimer{};

PERFBENCH_NO_INSTRUMENT void
onSample(int)
{
    if (!gActive)
        return;
    if (gInHook)
        ++gHookSamples;
    else
        ++gSamples[gStack[gTop].layer];
}

PERFBENCH_NO_INSTRUMENT inline void
hookBegin()
{
    gInHook = 1;
    std::atomic_signal_fence(std::memory_order_seq_cst);
}

PERFBENCH_NO_INSTRUMENT inline void
hookEnd()
{
    std::atomic_signal_fence(std::memory_order_seq_cst);
    gInHook = 0;
}

} // namespace

const char *
layerName(Layer layer)
{
    return kLayerNames[static_cast<std::size_t>(layer)];
}

bool
loadLayerMap(const std::string &path, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open layer map '" + path + "'";
        return false;
    }
    std::string line;
    uintptr_t anchor = 0;
    std::vector<std::pair<uintptr_t, uint8_t>> entries;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string word, name;
        if (!(fields >> word >> name))
            continue;
        if (word == "anchor") {
            anchor = std::strtoull(name.c_str(), nullptr, 16);
            continue;
        }
        std::size_t layer = 0;
        while (layer < kLayerCount && name != kLayerNames[layer])
            ++layer;
        if (layer == kLayerCount) {
            err = "unknown layer '" + name + "' in " + path;
            return false;
        }
        entries.emplace_back(std::strtoull(word.c_str(), nullptr, 16),
                             static_cast<uint8_t>(layer));
    }
    if (anchor == 0) {
        err = "layer map '" + path + "' has no anchor line";
        return false;
    }
    const uintptr_t bias =
        reinterpret_cast<uintptr_t>(&__cyg_profile_func_enter) - anchor;
    gMap.init(entries.size());
    for (const auto &[addr, layer] : entries)
        gMap.insert(addr + bias, layer);
    return true;
}

bool
startLayerClock(std::string &err)
{
    gTop = 0;
    gStack[0] = Frame{static_cast<uint8_t>(Layer::kRuntime), 1};
    gHookSamples = 0;
    std::memset(gSamples, 0, sizeof(gSamples));

    struct sigaction sa = {};
    sa.sa_handler = onSample;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigevent sev = {};
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    if (sigaction(SIGPROF, &sa, nullptr) != 0 ||
        timer_create(CLOCK_MONOTONIC, &sev, &gTimer) != 0) {
        err = std::string("sampling timer: ") + std::strerror(errno);
        return false;
    }
    gActive = true;
    itimerspec every = {};
    every.it_interval.tv_nsec = kSamplePeriodNs;
    every.it_value.tv_nsec = kSamplePeriodNs;
    timer_settime(gTimer, 0, &every, nullptr);
    return true;
}

LayerSamples
stopLayerClock()
{
    timer_delete(gTimer);
    gActive = false;
    LayerSamples out;
    for (std::size_t i = 0; i < kLayerCount; ++i)
        out.self[i] = gSamples[i];
    out.hooks = gHookSamples;
    return out;
}

} // namespace perfbench

using perfbench::gActive;
using perfbench::gMap;
using perfbench::gStack;
using perfbench::gTop;

extern "C" PERFBENCH_NO_INSTRUMENT void
__cyg_profile_func_enter(void *fn, void *)
{
    if (!gActive)
        return;
    perfbench::hookBegin();
    const uint8_t layer = gMap.find(reinterpret_cast<uintptr_t>(fn));
    perfbench::Frame &top = gStack[gTop];
    if (layer == top.layer) {
        ++top.depth;
    } else {
        if (gTop + 1 >= perfbench::kMaxFrames) {
            std::fprintf(stderr, "layer_trace: span stack overflow\n");
            std::abort();
        }
        gStack[gTop + 1] = perfbench::Frame{layer, 1};
        ++gTop;
    }
    perfbench::hookEnd();
}

extern "C" PERFBENCH_NO_INSTRUMENT void
__cyg_profile_func_exit(void *, void *)
{
    if (!gActive)
        return;
    perfbench::hookBegin();
    if (--gStack[gTop].depth == 0 && gTop > 0)
        --gTop;
    perfbench::hookEnd();
}
