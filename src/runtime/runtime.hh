/**
 * @file
 * Runtime: one experiment's complete wiring — simulator, cluster,
 * stripes, foreground driver, bandwidth monitor, executor, repair
 * session/scheduler, fault injector, and (optionally) an isolated
 * telemetry context — owned by a single object with zero mutable
 * process-global state per run.
 *
 * A Runtime is single-use: construct it with an algorithm + config
 * (or a ScenarioSpec), call run() once, read the result. Components
 * are built in dependency order when run() starts and torn down in
 * reverse order before it returns, so a Runtime that has finished
 * holds no live simulation state.
 *
 * Telemetry isolation: with `isolateTelemetry` set (the SweepRunner
 * default), run() installs a per-run tracer + metrics registry as the
 * calling thread's telemetry context, so concurrent runs never
 * interleave events or counters; the captured RunTelemetry stays
 * readable after run() for ordered publication via
 * telemetry::mergeIntoProcess(). Without it (the legacy
 * runExperiment()/chameleon-sim path), instrumentation lands in the
 * process-wide tracer and registry exactly as before.
 */

#ifndef CHAMELEON_RUNTIME_RUNTIME_HH_
#define CHAMELEON_RUNTIME_RUNTIME_HH_

#include <memory>

#include "runtime/experiment.hh"
#include "telemetry/telemetry.hh"

namespace chameleon {
namespace runtime {

/** Behavior switches orthogonal to the experiment itself. */
struct RuntimeOptions
{
    /**
     * Record this run's events and metrics in a private RunTelemetry
     * instead of the process-wide tracer/registry. Required when
     * runs execute concurrently; off for the single-run CLI path so
     * its telemetry behavior is unchanged.
     */
    bool isolateTelemetry = false;
};

/** One experiment's wiring; see file comment. */
class Runtime
{
  public:
    Runtime(Algorithm algorithm, ExperimentConfig config,
            RuntimeOptions options = {});

    ~Runtime();
    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** Executes the experiment. Call exactly once. Panics with the
     * diagnostic when ExperimentConfig::validate rejects the config. */
    ExperimentResult run(const ExperimentHooks &hooks = {});

    Algorithm algorithm() const { return algorithm_; }
    const ExperimentConfig &config() const { return config_; }

    /**
     * The run's captured telemetry; null unless isolateTelemetry was
     * set. Valid until the Runtime is destroyed — merge it into the
     * process context (telemetry::mergeIntoProcess) before then.
     */
    telemetry::RunTelemetry *runTelemetry() { return telem_.get(); }

  private:
    Algorithm algorithm_;
    ExperimentConfig config_;
    RuntimeOptions options_;
    std::unique_ptr<telemetry::RunTelemetry> telem_;
    bool ran_ = false;
};

} // namespace runtime
} // namespace chameleon

#endif // CHAMELEON_RUNTIME_RUNTIME_HH_
