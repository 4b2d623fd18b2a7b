/**
 * @file
 * ScenarioSpec: the pure-data, JSON-round-trippable form of one
 * experiment cell — algorithm, erasure code, cluster shape, trace,
 * scheduler tuning, and the fault/straggler schedules — with nothing
 * that cannot be serialized (the erasure code and foreground trace
 * are stored as spec strings / profile names and materialized by
 * toConfig()).
 *
 * fromJson() rejects malformed input with a diagnostic instead of
 * panicking, so scenario files are safe to feed from the command
 * line; validate() holds the range and cross-field checks, which
 * fromJson() and the CLI (after applying its flags) both run.
 * toJson() round-trips (parse(toJson(s)) == s) with full
 * double precision. Fault schedules use src/fault's spec grammar
 * ("crash@30:node=3:dur=40"); stragglers use the analogous grammar
 * documented at parseStragglers().
 */

#ifndef CHAMELEON_RUNTIME_SCENARIO_HH_
#define CHAMELEON_RUNTIME_SCENARIO_HH_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/experiment.hh"

namespace chameleon {
namespace runtime {

/** Pure-data experiment cell; see file comment. */
struct ScenarioSpec
{
    /** Optional label, used as the result-row name when set. */
    std::string name;
    Algorithm algorithm = Algorithm::kChameleon;
    /** Erasure code spec, parsed by the ec registry grammar:
     * rs(K,M) | lrc(K,L,M) | lrc(K,L,G,M) | butterfly | rep(N),
     * with "family:args" accepted as a legacy alias. */
    std::string code = "rs:10,4";
    /** Trace profile name: ycsb-a|ibm|memcached|etc|none. */
    std::string trace = "ycsb-a";
    cluster::ClusterConfig cluster;
    repair::ExecutorConfig exec;
    int chunksToRepair = 40;
    /** Exact stripe count (0 = grow until node 0 hosts
     * chunks_to_repair chunks, the legacy behavior). */
    int stripes = 0;
    int failedNodes = 1;
    uint64_t requestsPerClient = 0;
    SimTime warmup = 16.0;
    repair::ChameleonConfig chameleon;
    repair::SessionConfig session;
    /** Crash-retry policy of every repair driver (the "retry"
     * block). */
    repair::RetryConfig retry;
    /** Execution-topology override ("auto"|"star"|"chain"|"ppr"|
     * "mlf:F"); only meaningful for session algorithms — validate()
     * rejects non-auto values for the Chameleon family and kNone. */
    dag::TopologySpec topology;
    std::vector<StragglerEvent> stragglers;
    fault::FaultSchedule faults;
    double chaosRate = 0.0;
    uint64_t chaosSeed = 0;
    SimTime chaosHorizon = 120.0;
    /** Silent bit-rot arrival rate (chaos block, "bitrot_rate");
     * independent of the combined chaos rate. */
    double bitrotRate = 0.0;
    /** Background scanner / repair-queue knobs (the "scanner" JSON
     * block); scanner.enabled selects the scanner repair path. */
    cluster::ScannerConfig scanner;
    /** Integrity scrubbing + executor verify knobs (the "scrub"
     * JSON block); scrub.enabled starts the background scrubber. */
    cluster::ScrubConfig scrub;
    /** Hedged degraded-read policy (the "degraded" JSON block);
     * degraded.enabled routes repairs through the hedged-read
     * manager — session algorithms only, and no topology override,
     * since hedged attempts are stars (validate() enforces both).
     * Scanner discovery and scrubbing apply as to any driver. */
    traffic::HedgedReadConfig degraded;
    uint64_t seed = 1;
    SimTime simTimeCap = 100000.0;

    /** Applies the experiment defaults (2.5 Gb/s sustained links)
     * so a default ScenarioSpec equals a default ExperimentConfig. */
    ScenarioSpec();

    bool operator==(const ScenarioSpec &) const = default;

    /**
     * Parses one scenario object. Unknown keys, bad algorithm/code/
     * trace names and malformed schedules are rejected, and so is
     * anything validate() rejects.
     * @param error receives a description on failure when non-null.
     */
    static std::optional<ScenarioSpec>
    fromJson(const std::string &text, std::string *error = nullptr);

    /**
     * Range and cross-field checks: out-of-range dimensions and
     * knobs, and combinations no run can honor. The diagnostic names
     * the offending field.
     * @param error receives a description on failure when non-null.
     */
    bool validate(std::string *error = nullptr) const;

    /** Serializes with enough precision to round-trip exactly.
     * (Seeds above 2^53 lose precision — JSON numbers are doubles.) */
    std::string toJson() const;

    /**
     * Materializes the runnable config: parses the code spec and
     * resolves the trace name. Panics on an unresolvable spec;
     * fromJson() output always materializes.
     */
    ExperimentConfig toConfig() const;
};

/**
 * Parses an erasure-code spec (rs:K,M | lrc:K,L,M | butterfly |
 * rep:N); nullopt + *error on malformed input.
 */
std::optional<std::shared_ptr<const ec::ErasureCode>>
tryParseCode(const std::string &spec, std::string *error = nullptr);

/**
 * Resolves a trace-profile name; "none" or "" yield an engaged
 * result holding nullopt (no foreground traffic).
 * @return false for unknown names (*error set when non-null).
 */
bool tryResolveTrace(const std::string &name,
                     std::optional<traffic::TraceProfile> *out,
                     std::string *error = nullptr);

/**
 * Straggler schedule grammar, mirroring the fault spec grammar
 * (semicolon-separated events):
 *   T[:node=N][:factor=F][:dur=D][:link=up|down|both]
 * where T is seconds after repair start; omitting node auto-picks a
 * node participating in the repair. E.g. "5:factor=0.05:dur=15".
 */
std::optional<std::vector<StragglerEvent>>
tryParseStragglers(const std::string &spec,
                   std::string *error = nullptr);

/** Panicking form of tryParseStragglers for trusted (CLI) input. */
std::vector<StragglerEvent> parseStragglers(const std::string &spec);

/** Round-trips a straggler schedule back to the spec grammar. */
std::string stragglerSpecStr(const std::vector<StragglerEvent> &events);

} // namespace runtime
} // namespace chameleon

#endif // CHAMELEON_RUNTIME_SCENARIO_HH_
