/**
 * @file
 * The experiment vocabulary: the algorithms the paper compares, the
 * full experiment configuration, and the result record every bench
 * binary reports. The wiring that turns a configuration into a
 * result lives in runtime/runtime.hh (Runtime); declarative sweeps
 * over many (algorithm, config) cells live in runtime/sweep.hh
 * (SweepRunner); the pure-data, JSON-round-trippable form lives in
 * runtime/scenario.hh (ScenarioSpec).
 */

#ifndef CHAMELEON_RUNTIME_EXPERIMENT_HH_
#define CHAMELEON_RUNTIME_EXPERIMENT_HH_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/replicator_scanner.hh"
#include "cluster/scrub_scanner.hh"
#include "fault/fault.hh"
#include "repair/chameleon_scheduler.hh"
#include "repair/executor.hh"
#include "repair/session.hh"
#include "repair/strategies.hh"
#include "traffic/foreground_driver.hh"
#include "traffic/hedged_read.hh"
#include "traffic/trace_profile.hh"
#include "util/stats.hh"

namespace chameleon {
namespace runtime {

/** The repair algorithms the paper compares. */
enum class Algorithm {
    kNone,        ///< no repair (trace-only baselines, Exp#2)
    kCr,          ///< conventional repair (star)
    kPpr,         ///< partial-parallel repair (binomial tree)
    kEcpipe,      ///< repair pipelining (chain)
    kRbCr,        ///< RepairBoost-scheduled CR
    kRbPpr,       ///< RepairBoost-scheduled PPR
    kRbEcpipe,    ///< RepairBoost-scheduled ECPipe
    kEtrp,        ///< ChameleonEC without straggler re-scheduling
    kChameleon,   ///< full ChameleonEC
    kChameleonIo, ///< ChameleonEC keyed on storage bandwidth
};

/** Display name, as the paper's figures label it ("ChameleonEC"). */
std::string algorithmName(Algorithm algorithm);

/** CLI/metric-key spelling ("chameleon", "rb-cr"). */
std::string algorithmKey(Algorithm algorithm);

/** Inverse of algorithmKey; nullopt for unknown spellings. */
std::optional<Algorithm> algorithmFromKey(const std::string &key);

/** ETRP, ChameleonEC and ChameleonEC-IO: the Chameleon dispatcher
 * owns their plans and tree shapes. */
bool isChameleonFamily(Algorithm algorithm);

/** CR, PPR, ECPipe and their RepairBoost variants, whose plans a
 * RepairSession executes. */
bool isSessionAlgorithm(Algorithm algorithm);

/** RB+CR, RB+PPR and RB+ECPipe. */
bool isRepairBoost(Algorithm algorithm);

/** Plan shape of a session algorithm; panics for the others. */
repair::Topology topologyOf(Algorithm algorithm);

/** A mid-run capacity throttle (straggler / wondershaper). */
struct StragglerEvent
{
    SimTime at = 0.0;
    /** Node to throttle; kInvalidNode picks a node that actually
     * hosts surviving chunks of the first repaired stripe, so the
     * straggler is guaranteed to sit in the repair's path. */
    NodeId node = 0;
    /** Remaining capacity fraction while throttled. */
    double factor = 0.1;
    SimTime duration = 10.0;
    /** Throttle uplink, downlink, or both. */
    bool uplink = true;
    bool downlink = true;

    bool operator==(const StragglerEvent &) const = default;
};

/**
 * The plain-data part of an experiment cell: every field that
 * serializes as-is. ExperimentConfig adds the live erasure code and
 * foreground trace; ScenarioSpec adds their spec strings, the
 * algorithm and a label. Defaults follow Section V-A (scaled-down
 * sizes are chosen by the bench binaries).
 */
struct RunSettings
{
    /** Cluster shape; links default to 2.5 Gb/s sustained (set in
     * the constructor). */
    cluster::ClusterConfig cluster;
    repair::ExecutorConfig exec;
    /** Chunks to repair on the (first) failed node. */
    int chunksToRepair = 40;
    /** Exact stripe count to create; 0 keeps the legacy behavior of
     * growing until node 0 hosts chunksToRepair chunks. */
    int stripes = 0;
    /** Nodes to fail (Exp#8 sweeps 1-3). */
    int failedNodes = 1;
    /** Bounded trace budget per client (0 = run until repair ends). */
    uint64_t requestsPerClient = 0;
    /** Seconds of foreground warm-up before the failure. */
    SimTime warmup = 16.0;
    repair::ChameleonConfig chameleon;
    repair::SessionConfig session;
    /** Crash-retry policy of whichever repair driver runs (the
     * "retry" JSON block). */
    repair::RetryConfig retry;
    /**
     * Execution-topology override for session algorithms (CR/PPR/
     * ECPipe families): rebuilds each plan's source set into the
     * requested DAG shape (chain, PPR, MLF, star) and executes it
     * slice-pipelined. kAuto keeps native tree execution. Not
     * applicable to the Chameleon family, whose dispatcher owns its
     * tree shapes.
     */
    dag::TopologySpec topology;
    std::vector<StragglerEvent> stragglers;
    /** Mid-repair fault schedule, armed at the failure instant
     * (event times are relative to it). */
    fault::FaultSchedule faults;
    /** Chaos generation: combined fault arrival rate (events per
     * second, split across kinds); 0 disables chaos. Generated
     * events are merged with `faults`. */
    double chaosRate = 0.0;
    /** Chaos schedule seed; 0 derives one from `seed`. */
    uint64_t chaosSeed = 0;
    /** Chaos events arrive within this window after the failure. */
    SimTime chaosHorizon = 120.0;
    /** Background scanner + repair-queue knobs; scanner.enabled
     * routes failure discovery and repair admission through the
     * ReplicatorScanner/RepairQueue path instead of feeding the
     * session its work list directly. */
    cluster::ScannerConfig scanner;
    /** Background integrity scrubbing + executor verify hooks;
     * scrub.enabled starts the ScrubScanner and (per its verify
     * flags) installs verify-on-read / verify-after-decode. */
    cluster::ScrubConfig scrub;
    /** Silent bit-rot arrival rate (events/second within the chaos
     * horizon); independent of chaosRate so integrity chaos is
     * opt-in. Corruptions are only *detected* when scrubbing or the
     * verify hooks are on. */
    double bitrotRate = 0.0;
    /** Hedged degraded-read policy; degraded.enabled routes the
     * run's repairs through traffic::HedgedReadManager instead of
     * the session (session algorithms only: the Chameleon
     * dispatcher owns its own plans, and hedged attempts are stars,
     * so no topology override applies). */
    traffic::HedgedReadConfig degraded;
    uint64_t seed = 1;
    /** Hard wall on simulated time (guards runaway runs). */
    SimTime simTimeCap = 100000.0;

    RunSettings();

    bool operator==(const RunSettings &) const = default;
};

/** Full experiment specification: the settings plus the live code
 * and trace they run with. */
struct ExperimentConfig : RunSettings
{
    /** Erasure code (default RS(10,4), set in the constructor). */
    std::shared_ptr<const ec::ErasureCode> code;
    /** Foreground trace; nullopt disables foreground traffic. */
    std::optional<traffic::TraceProfile> trace;

    ExperimentConfig();

    /**
     * Range and cross-field checks for running this config as
     * `algorithm`: unset, non-finite or out-of-range knobs, and
     * combinations no run can honor. Runtime::run calls it before it
     * builds anything; the diagnostic names the offending field.
     * @param error receives a description on failure when non-null.
     * @param code_spec how the caller spelled the code, quoted in
     *                  the diagnostics (default: code->name()).
     */
    bool validate(Algorithm algorithm, std::string *error = nullptr,
                  const std::string &code_spec = {}) const;
};

/** Per-link load summary for the Fig. 5 / Fig. 6 analyses. */
struct LinkLoad
{
    NodeId node = 0;
    Rate foregroundMean = 0.0;
    Rate repairMean = 0.0;
    Rate foregroundFluctuation = 0.0;

    Rate total() const { return foregroundMean + repairMean; }

    bool operator==(const LinkLoad &) const = default;
};

/** Everything a bench binary reports. */
struct ExperimentResult
{
    Algorithm algorithm = Algorithm::kNone;
    /** Repaired bytes per second (the paper's headline metric). */
    Rate repairThroughput = 0.0;
    SimTime repairTime = 0.0;
    int chunksRepaired = 0;
    /** Chunks the repair layer gave up on (stripe short of helpers
     * or retry budget exhausted); 0 without fault injection. */
    int chunksUnrecoverable = 0;
    /** Chunk repairs aborted by mid-repair crashes and re-planned. */
    int crashReplans = 0;
    /** Chunks still lost when the run ends. Once every loss is
     * discovered and settled, these are exactly the unrecoverable
     * ones, so repaired + this counts the losses. */
    int chunksLostAtEnd = 0;
    /** Faults the injector applied (skipped events excluded). */
    int faultsInjected = 0;
    /** Foreground request latency during the repair window (ms). */
    double p99LatencyMs = 0.0;
    double meanLatencyMs = 0.0;
    /** Full latency statistics of the same window (seconds). */
    LatencySummary latency;
    /** Bounded-trace execution time (Exp#2); 0 if unbounded. */
    SimTime traceTime = 0.0;
    /** Chameleon-only counters. */
    int phases = 0;
    int retunes = 0;
    int reorders = 0;
    /** Hedged degraded-read counters (zero unless degraded.enabled):
     * hedged attempts launched / hedges that beat their primary, and
     * the per-read issue-to-completion latency distribution. */
    int hedgesIssued = 0;
    int hedgeWins = 0;
    LatencySummary degradedLatency;
    /** Integrity counters (zero unless scrub.enabled). Detected
     * covers all three detection paths (scrub read, verify-on-read,
     * verify-after-decode); the run loop waits for the scrub
     * subsystem to go quiescent, so with scrubbing on, injected ==
     * detected + corruptions claimed by real losses first. */
    int corruptionsInjected = 0;
    int corruptionsDetected = 0;
    int corruptionsRepaired = 0;
    /** Full (stripe, chunk) scrub passes completed. */
    int scrubEpochs = 0;
    /** Bytes read by the background scrubber. */
    Bytes scrubBytes = 0.0;
    /** Injection-to-detection latency (seconds) over detections
     * with a recorded injection time; 0 when none. */
    SimTime meanDetectionLatency = 0.0;
    SimTime maxDetectionLatency = 0.0;
    /** Uplink/downlink loads over the repair window, per node. */
    std::vector<LinkLoad> uplinks;
    std::vector<LinkLoad> downlinks;
    /** Time series of repair throughput — completed chunk bytes per
     * second per sample (lumpy, since chunks complete whole). */
    std::vector<Rate> throughputTimeline;
    /** Time series of repair traffic through node uplinks (bytes/s
     * per sample) — smooth, tracks in-progress transfers (Exp#4). */
    std::vector<Rate> trafficTimeline;
    /** Timeline sampling period (seconds). */
    SimTime timelinePeriod = 5.0;

    /** Field-wise equality, used by the -j1 vs -jN determinism
     * tests: identical spec + seed must mean identical results. */
    bool operator==(const ExperimentResult &) const = default;
};

/** Hook bag for specialized benches (Exp#4's trace switching). */
struct ExperimentHooks
{
    /** Called every timeline sample with (time, driver). May switch
     * trace profiles, inject load, etc. */
    std::function<void(SimTime, traffic::ForegroundDriver *)> onSample;
};

/**
 * Runs one (algorithm, config) cell in the calling thread against
 * the thread's current telemetry context and reports the metrics.
 * Convenience wrapper over Runtime for single sequential runs; sweeps
 * should go through SweepRunner, which isolates telemetry per cell.
 */
ExperimentResult runExperiment(Algorithm algorithm,
                               const ExperimentConfig &config,
                               const ExperimentHooks &hooks = {});

} // namespace runtime
} // namespace chameleon

#endif // CHAMELEON_RUNTIME_EXPERIMENT_HH_
