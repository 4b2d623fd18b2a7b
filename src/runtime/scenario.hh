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
 * line; validate() adds the range and cross-field checks of
 * ExperimentConfig::validate, which every Runtime runs.
 * toJson() round-trips (parse(toJson(s)) == s) with full
 * double precision. Fault schedules use src/fault's spec grammar
 * ("crash@30:node=3:dur=40"); stragglers use the analogous grammar
 * documented at tryParseStragglers().
 */

#ifndef CHAMELEON_RUNTIME_SCENARIO_HH_
#define CHAMELEON_RUNTIME_SCENARIO_HH_

#include <optional>
#include <string>
#include <vector>

#include "runtime/experiment.hh"

namespace chameleon {
namespace runtime {

/** Pure-data experiment cell; see file comment. The run settings
 * are the shared RunSettings base; the spec adds what
 * ExperimentConfig holds as live objects, spelled as strings. */
struct ScenarioSpec : RunSettings
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
     * Rejects an unparsable code spec or an unknown trace name, then
     * runs ExperimentConfig::validate on toConfig(). The diagnostic
     * names the offending field.
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

/** Round-trips a straggler schedule back to the spec grammar. */
std::string stragglerSpecStr(const std::vector<StragglerEvent> &events);

} // namespace runtime
} // namespace chameleon

#endif // CHAMELEON_RUNTIME_SCENARIO_HH_
