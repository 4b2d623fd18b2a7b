/**
 * @file
 * Per-layer self time for the traced benchmark binary.
 *
 * The traced build compiles src/ with -finstrument-functions, so
 * every function defined in a src/ .cc file calls the enter/exit
 * hooks in layer_trace.cc. run.py maps each instrumented function to
 * its source file (`nm -l`) and the file to a layer, and hands the
 * map to the binary. The hooks keep a stack of spans: one opens each
 * time control crosses from one layer into another and closes when
 * that call returns. Calls that stay inside one layer only bump the
 * open span's depth.
 *
 * A layer's self time is the time its span is the innermost open one
 * (span time minus nested spans). It is measured by sampling that
 * innermost span every 250 us of wall time instead of reading a clock
 * at every crossing: a sample that lands inside a hook is counted as
 * trace overhead, not charged to a layer. The instrumentation roughly
 * doubles the run time of call-heavy layers, so charging the hooks'
 * own time to the layer that calls them would skew the shares.
 *
 * Single-threaded: the benchmark runs every simulation on its main
 * thread, and the hooks keep their stack in plain globals.
 */

#ifndef PERFBENCH_LAYER_TRACE_HH_
#define PERFBENCH_LAYER_TRACE_HH_

#include <array>
#include <cstdint>
#include <string>

namespace perfbench {

/** Layers of the traced run; kRuntime takes whatever no other
 * layer claims (src/runtime, src/fault, the benchmark itself). */
enum class Layer : uint8_t {
    kRuntime,
    kSolver,
    kEvents,
    kRepairExec,
    kRepairSched,
    kCluster,
    kTraffic,
    kEc,
    kTelemetry,
    kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

/** Metric prefix of a layer ("sim.solver"); its self time is
 * reported as "<prefix>.self_s". */
const char *layerName(Layer layer);

/**
 * Loads the function-address -> layer map run.py writes. The first
 * line is "anchor <hex>": the link-time address of the enter hook,
 * from which the load bias of a position-independent binary
 * follows. Returns false with a message in `err` on a malformed map.
 */
bool loadLayerMap(const std::string &path, std::string &err);

/** Wall-clock period between samples of the innermost span. */
inline constexpr double kSamplePeriodSeconds = 250e-6;

/** Samples taken between the last start and stop of the clock. */
struct LayerSamples
{
    /** Samples per layer, innermost span at the time. */
    std::array<uint64_t, kLayerCount> self{};
    /** Samples that landed inside a hook. */
    uint64_t hooks = 0;
};

/** Starts sampling; call with no src/ frame on the stack. Returns
 * false with a message in `err` if the sampling timer fails. */
bool startLayerClock(std::string &err);

/** Stops sampling; same stack condition as the start. */
LayerSamples stopLayerClock();

} // namespace perfbench

#endif // PERFBENCH_LAYER_TRACE_HH_
