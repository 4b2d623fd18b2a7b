#include "runtime/scenario.hh"

#include <cmath>
#include <sstream>

#include "ec/factory.hh"
#include "telemetry/json.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace chameleon {
namespace runtime {

namespace {

using telemetry::JsonValue;

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t next = s.find(sep, pos);
        if (next == std::string::npos)
            next = s.size();
        out.push_back(s.substr(pos, next - pos));
        pos = next + 1;
    }
    return out;
}

std::optional<double>
parseNum(const std::string &s)
{
    std::size_t used = 0;
    double v = 0.0;
    try {
        v = std::stod(s, &used);
    } catch (...) {
        return std::nullopt;
    }
    if (used != s.size() || s.empty())
        return std::nullopt;
    return v;
}

const char *
priorityKey(repair::RepairPriority p)
{
    switch (p) {
      case repair::RepairPriority::kSequential:
        return "sequential";
      case repair::RepairPriority::kMostFailedFirst:
        return "most-failed-first";
      case repair::RepairPriority::kShortestFirst:
        return "shortest-first";
    }
    return "sequential";
}

std::optional<repair::RepairPriority>
priorityFromKey(const std::string &key)
{
    if (key == "sequential")
        return repair::RepairPriority::kSequential;
    if (key == "most-failed-first")
        return repair::RepairPriority::kMostFailedFirst;
    if (key == "shortest-first")
        return repair::RepairPriority::kShortestFirst;
    return std::nullopt;
}

// ---- JSON reading helpers. Absent keys keep the field's default;
// present keys must have the right type and pass validation.

bool
checkKeys(const JsonValue &obj, const char *where,
          std::initializer_list<const char *> allowed,
          std::string &err)
{
    if (!obj.isObject()) {
        err = std::string(where) + " is not an object";
        return false;
    }
    for (const auto &[key, value] : obj.object) {
        bool known = false;
        for (const char *a : allowed)
            if (key == a)
                known = true;
        if (!known) {
            err = std::string("unknown key '") + key + "' in " +
                  where;
            return false;
        }
    }
    return true;
}

bool
readNum(const JsonValue &obj, const char *key, double *out,
        std::string &err)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return true;
    if (!v->isNumber()) {
        err = std::string("'") + key + "' must be a number";
        return false;
    }
    *out = v->number;
    return true;
}

bool
readInt(const JsonValue &obj, const char *key, int *out,
        std::string &err)
{
    double num = *out;
    if (!readNum(obj, key, &num, err))
        return false;
    if (num != std::floor(num) || std::abs(num) > 2e9) {
        err = std::string("'") + key + "' must be an integer";
        return false;
    }
    *out = static_cast<int>(num);
    return true;
}

bool
readU64(const JsonValue &obj, const char *key, uint64_t *out,
        std::string &err)
{
    double num = static_cast<double>(*out);
    if (!readNum(obj, key, &num, err))
        return false;
    if (num != std::floor(num) || num < 0) {
        err = std::string("'") + key +
              "' must be a non-negative integer";
        return false;
    }
    *out = static_cast<uint64_t>(num);
    return true;
}

bool
readBool(const JsonValue &obj, const char *key, bool *out,
         std::string &err)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return true;
    if (v->type != JsonValue::Type::kBool) {
        err = std::string("'") + key + "' must be a boolean";
        return false;
    }
    *out = v->boolean;
    return true;
}

bool
readStr(const JsonValue &obj, const char *key, std::string *out,
        std::string &err)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return true;
    if (!v->isString()) {
        err = std::string("'") + key + "' must be a string";
        return false;
    }
    *out = v->string;
    return true;
}

// ---- JSON writing helpers (same escaping as the telemetry sinks).

void
writeString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            os << c;
        }
    }
    os << '"';
}

void
writeKeyNum(std::ostream &os, const char *key, double v,
            const char *sep = ",\n")
{
    os << "  \"" << key << "\": " << formatDouble(v) << sep;
}

} // namespace

bool
tryResolveTrace(const std::string &name,
                std::optional<traffic::TraceProfile> *out,
                std::string *error)
{
    if (name.empty() || name == "none") {
        *out = std::nullopt;
        return true;
    }
    if (name == "ycsb-a") {
        *out = traffic::ycsbA();
        return true;
    }
    if (name == "ibm") {
        *out = traffic::ibmObjectStore();
        return true;
    }
    if (name == "memcached") {
        *out = traffic::memcachedCluster37();
        return true;
    }
    if (name == "etc") {
        *out = traffic::facebookEtc();
        return true;
    }
    if (error)
        *error = "unknown trace '" + name +
                 "' (want ycsb-a|ibm|memcached|etc|none)";
    return false;
}

std::optional<std::vector<StragglerEvent>>
tryParseStragglers(const std::string &spec, std::string *error)
{
    auto fail = [&](const std::string &msg)
        -> std::optional<std::vector<StragglerEvent>> {
        if (error)
            *error = msg;
        return std::nullopt;
    };
    std::vector<StragglerEvent> out;
    for (const std::string &item : splitOn(spec, ';')) {
        if (item.empty())
            continue;
        auto fields = splitOn(item, ':');
        auto at = parseNum(fields[0]);
        if (!at)
            return fail("straggler event '" + item +
                        "' lacks a start time");
        StragglerEvent ev;
        ev.at = *at;
        ev.node = kInvalidNode; // default: auto-pick a participant
        for (std::size_t i = 1; i < fields.size(); ++i) {
            auto eq = fields[i].find('=');
            if (eq == std::string::npos)
                return fail("straggler option '" + fields[i] +
                            "' is not key=value");
            std::string key = fields[i].substr(0, eq);
            std::string val = fields[i].substr(eq + 1);
            if (key == "node") {
                auto n = parseNum(val);
                if (!n || *n != std::floor(*n) || *n < 0)
                    return fail("bad straggler node '" + val + "'");
                ev.node = static_cast<NodeId>(*n);
            } else if (key == "factor") {
                auto f = parseNum(val);
                if (!f)
                    return fail("bad straggler factor '" + val + "'");
                ev.factor = *f;
            } else if (key == "dur") {
                auto d = parseNum(val);
                if (!d)
                    return fail("bad straggler duration '" + val +
                                "'");
                ev.duration = *d;
            } else if (key == "link") {
                if (val == "up") {
                    ev.uplink = true;
                    ev.downlink = false;
                } else if (val == "down") {
                    ev.uplink = false;
                    ev.downlink = true;
                } else if (val == "both") {
                    ev.uplink = ev.downlink = true;
                } else {
                    return fail("bad straggler link '" + val +
                                "' (want up|down|both)");
                }
            } else {
                return fail("unknown straggler option '" + key +
                            "' (want node|factor|dur|link)");
            }
        }
        out.push_back(ev);
    }
    return out;
}

std::string
stragglerSpecStr(const std::vector<StragglerEvent> &events)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const StragglerEvent &ev = events[i];
        if (i)
            os << ';';
        os << formatDouble(ev.at);
        if (ev.node != kInvalidNode)
            os << ":node=" << ev.node;
        os << ":factor=" << formatDouble(ev.factor);
        os << ":dur=" << formatDouble(ev.duration);
        if (ev.uplink != ev.downlink)
            os << ":link=" << (ev.uplink ? "up" : "down");
    }
    return os.str();
}

std::optional<ScenarioSpec>
ScenarioSpec::fromJson(const std::string &text, std::string *error)
{
    auto fail = [&](const std::string &msg)
        -> std::optional<ScenarioSpec> {
        if (error)
            *error = msg;
        return std::nullopt;
    };
    auto doc = telemetry::parseJson(text);
    if (!doc)
        return fail("scenario is not valid JSON");
    std::string err;
    if (!checkKeys(*doc, "scenario",
                   {"name", "algorithm", "code", "trace", "cluster",
                    "executor", "chunks_to_repair", "stripes",
                    "failed_nodes", "requests_per_client", "warmup",
                    "chameleon", "session", "retry", "topology",
                    "stragglers", "faults", "chaos", "scanner", "scrub",
                    "degraded", "seed", "sim_time_cap"},
                   err))
        return fail(err);

    ScenarioSpec spec;
    if (!readStr(*doc, "name", &spec.name, err))
        return fail(err);

    std::string algo = algorithmKey(spec.algorithm);
    if (!readStr(*doc, "algorithm", &algo, err))
        return fail(err);
    auto parsed_algo = algorithmFromKey(algo);
    if (!parsed_algo)
        return fail("unknown algorithm '" + algo + "'");
    spec.algorithm = *parsed_algo;

    // validate() below resolves the code spec and the trace name.
    if (!readStr(*doc, "code", &spec.code, err) ||
        !readStr(*doc, "trace", &spec.trace, err))
        return fail(err);

    if (const JsonValue *cl = doc->find("cluster")) {
        if (!checkKeys(*cl, "cluster",
                       {"nodes", "clients", "uplink_bw",
                        "downlink_bw", "disk_bw", "usage_window",
                        "racks", "rack_oversubscription"},
                       err) ||
            !readInt(*cl, "nodes", &spec.cluster.numNodes, err) ||
            !readInt(*cl, "clients", &spec.cluster.numClients, err) ||
            !readNum(*cl, "uplink_bw", &spec.cluster.uplinkBw, err) ||
            !readNum(*cl, "downlink_bw", &spec.cluster.downlinkBw,
                     err) ||
            !readNum(*cl, "disk_bw", &spec.cluster.diskBw, err) ||
            !readNum(*cl, "usage_window", &spec.cluster.usageWindow,
                     err) ||
            !readInt(*cl, "racks", &spec.cluster.racks, err) ||
            !readNum(*cl, "rack_oversubscription",
                     &spec.cluster.rackOversubscription, err))
            return fail(err);
    }
    if (const JsonValue *ex = doc->find("executor")) {
        double chunk = static_cast<double>(spec.exec.chunkSize);
        double slice = static_cast<double>(spec.exec.sliceSize);
        if (!checkKeys(*ex, "executor",
                       {"chunk_size", "slice_size", "slices",
                        "upload_slots", "download_slots",
                        "relay_overhead_per_mib"},
                       err) ||
            !readNum(*ex, "chunk_size", &chunk, err) ||
            !readNum(*ex, "slice_size", &slice, err) ||
            !readInt(*ex, "slices", &spec.exec.slices, err) ||
            !readInt(*ex, "upload_slots", &spec.exec.nodeUploadSlots,
                     err) ||
            !readInt(*ex, "download_slots",
                     &spec.exec.nodeDownloadSlots, err) ||
            !readNum(*ex, "relay_overhead_per_mib",
                     &spec.exec.relayOverheadPerMiB, err))
            return fail(err);
        spec.exec.chunkSize = chunk;
        spec.exec.sliceSize = slice;
    }
    if (const JsonValue *ch = doc->find("chameleon")) {
        std::string prio = priorityKey(spec.chameleon.priority);
        if (!checkKeys(*ch, "chameleon",
                       {"t_phase", "check_period", "straggler_slack",
                        "expectation_factor", "reorder_backoff",
                        "reordering", "retuning", "priority"},
                       err) ||
            !readNum(*ch, "t_phase", &spec.chameleon.tPhase, err) ||
            !readNum(*ch, "check_period",
                     &spec.chameleon.checkPeriod, err) ||
            !readNum(*ch, "straggler_slack",
                     &spec.chameleon.stragglerSlack, err) ||
            !readNum(*ch, "expectation_factor",
                     &spec.chameleon.expectationFactor, err) ||
            !readNum(*ch, "reorder_backoff",
                     &spec.chameleon.reorderBackoff, err) ||
            !readBool(*ch, "reordering",
                      &spec.chameleon.enableReordering, err) ||
            !readBool(*ch, "retuning",
                      &spec.chameleon.enableRetuning, err) ||
            !readStr(*ch, "priority", &prio, err))
            return fail(err);
        auto parsed_prio = priorityFromKey(prio);
        if (!parsed_prio)
            return fail("unknown priority '" + prio + "'");
        spec.chameleon.priority = *parsed_prio;
    }
    if (const JsonValue *se = doc->find("session")) {
        if (!checkKeys(*se, "session", {"max_in_flight"}, err) ||
            !readInt(*se, "max_in_flight",
                     &spec.session.maxInFlight, err))
            return fail(err);
    }
    if (const JsonValue *rt = doc->find("retry")) {
        if (!checkKeys(*rt, "retry", {"max_retries", "backoff"}, err) ||
            !readInt(*rt, "max_retries", &spec.retry.maxRetries, err) ||
            !readNum(*rt, "backoff", &spec.retry.backoff, err))
            return fail(err);
    }
    std::string topo = dag::topologyKey(spec.topology);
    if (!readStr(*doc, "topology", &topo, err))
        return fail(err);
    auto parsed_topo = dag::topologyFromKey(topo, &err);
    if (!parsed_topo)
        return fail(err);
    spec.topology = *parsed_topo;

    if (const JsonValue *sc = doc->find("scanner")) {
        if (!checkKeys(*sc, "scanner",
                       {"enabled", "batch", "interval",
                        "risk_margin", "max_total_jobs",
                        "max_node_jobs"},
                       err) ||
            !readBool(*sc, "enabled", &spec.scanner.enabled, err) ||
            !readInt(*sc, "batch", &spec.scanner.batchSize, err) ||
            !readNum(*sc, "interval", &spec.scanner.tickInterval,
                     err) ||
            !readInt(*sc, "risk_margin", &spec.scanner.riskMargin,
                     err) ||
            !readInt(*sc, "max_total_jobs",
                     &spec.scanner.queue.maxTotalJobs, err) ||
            !readInt(*sc, "max_node_jobs",
                     &spec.scanner.queue.maxNodeJobs, err))
            return fail(err);
    }

    if (const JsonValue *chaos = doc->find("chaos")) {
        if (!checkKeys(*chaos, "chaos",
                       {"rate", "seed", "horizon", "bitrot_rate"},
                       err) ||
            !readNum(*chaos, "rate", &spec.chaosRate, err) ||
            !readU64(*chaos, "seed", &spec.chaosSeed, err) ||
            !readNum(*chaos, "horizon", &spec.chaosHorizon, err) ||
            !readNum(*chaos, "bitrot_rate", &spec.bitrotRate, err))
            return fail(err);
    }

    if (const JsonValue *sb = doc->find("scrub")) {
        if (!checkKeys(*sb, "scrub",
                       {"enabled", "rate", "interval", "adaptive",
                        "adaptive_floor", "max_in_flight",
                        "risk_margin", "verify_reads",
                        "verify_decode"},
                       err) ||
            !readBool(*sb, "enabled", &spec.scrub.enabled, err) ||
            !readNum(*sb, "rate", &spec.scrub.rate, err) ||
            !readNum(*sb, "interval", &spec.scrub.tickInterval,
                     err) ||
            !readBool(*sb, "adaptive", &spec.scrub.adaptive, err) ||
            !readNum(*sb, "adaptive_floor",
                     &spec.scrub.adaptiveFloor, err) ||
            !readInt(*sb, "max_in_flight", &spec.scrub.maxInFlight,
                     err) ||
            !readInt(*sb, "risk_margin", &spec.scrub.riskMargin,
                     err) ||
            !readBool(*sb, "verify_reads", &spec.scrub.verifyReads,
                      err) ||
            !readBool(*sb, "verify_decode",
                      &spec.scrub.verifyDecode, err))
            return fail(err);
    }

    if (const JsonValue *dg = doc->find("degraded")) {
        if (!checkKeys(*dg, "degraded",
                       {"enabled", "hedge", "hedge_multiplier",
                        "hedge_min_delay", "max_hedges",
                        "max_in_flight"},
                       err) ||
            !readBool(*dg, "enabled", &spec.degraded.enabled, err) ||
            !readBool(*dg, "hedge", &spec.degraded.hedge, err) ||
            !readNum(*dg, "hedge_multiplier",
                     &spec.degraded.hedgeMultiplier, err) ||
            !readNum(*dg, "hedge_min_delay",
                     &spec.degraded.hedgeMinDelay, err) ||
            !readInt(*dg, "max_hedges", &spec.degraded.maxHedges,
                     err) ||
            !readInt(*dg, "max_in_flight",
                     &spec.degraded.maxInFlight, err))
            return fail(err);
    }

    if (!readInt(*doc, "chunks_to_repair", &spec.chunksToRepair,
                 err) ||
        !readInt(*doc, "stripes", &spec.stripes, err) ||
        !readInt(*doc, "failed_nodes", &spec.failedNodes, err) ||
        !readU64(*doc, "requests_per_client",
                 &spec.requestsPerClient, err) ||
        !readNum(*doc, "warmup", &spec.warmup, err) ||
        !readU64(*doc, "seed", &spec.seed, err) ||
        !readNum(*doc, "sim_time_cap", &spec.simTimeCap, err))
        return fail(err);

    std::string stragglers;
    if (!readStr(*doc, "stragglers", &stragglers, err))
        return fail(err);
    if (!stragglers.empty()) {
        auto parsed = tryParseStragglers(stragglers, &err);
        if (!parsed)
            return fail(err);
        spec.stragglers = std::move(*parsed);
    }
    std::string faults;
    if (!readStr(*doc, "faults", &faults, err))
        return fail(err);
    if (!faults.empty()) {
        auto parsed = fault::FaultSchedule::tryParse(faults, &err);
        if (!parsed)
            return fail(err);
        spec.faults = std::move(*parsed);
    }

    if (!spec.validate(&err))
        return fail(err);
    return spec;
}

bool
ScenarioSpec::validate(std::string *error) const
{
    // One grammar for every entry point: the ec registry reports
    // malformed forms ("rs(10,)", "lrc(12)") instead of falling
    // through.
    std::string err;
    if (!ec::tryMakeCode(code, &err)) {
        if (error)
            *error = "code: " + err;
        return false;
    }
    std::optional<traffic::TraceProfile> profile;
    if (!tryResolveTrace(trace, &profile, error))
        return false;
    return toConfig().validate(algorithm, error, code);
}

std::string
ScenarioSpec::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"name\": ";
    writeString(os, name);
    os << ",\n  \"algorithm\": ";
    writeString(os, algorithmKey(algorithm));
    os << ",\n  \"code\": ";
    writeString(os, code);
    os << ",\n  \"trace\": ";
    writeString(os, trace.empty() ? "none" : trace);
    os << ",\n  \"cluster\": {\"nodes\": " << cluster.numNodes
       << ", \"clients\": " << cluster.numClients
       << ", \"uplink_bw\": " << formatDouble(cluster.uplinkBw)
       << ", \"downlink_bw\": " << formatDouble(cluster.downlinkBw)
       << ", \"disk_bw\": " << formatDouble(cluster.diskBw)
       << ", \"usage_window\": " << formatDouble(cluster.usageWindow)
       << ", \"racks\": " << cluster.racks
       << ", \"rack_oversubscription\": "
       << formatDouble(cluster.rackOversubscription) << "},\n";
    os << "  \"executor\": {\"chunk_size\": "
       << formatDouble(static_cast<double>(exec.chunkSize))
       << ", \"slice_size\": "
       << formatDouble(static_cast<double>(exec.sliceSize))
       << ", \"slices\": " << exec.slices
       << ", \"upload_slots\": " << exec.nodeUploadSlots
       << ", \"download_slots\": " << exec.nodeDownloadSlots
       << ", \"relay_overhead_per_mib\": "
       << formatDouble(exec.relayOverheadPerMiB) << "},\n";
    writeKeyNum(os, "chunks_to_repair", chunksToRepair);
    writeKeyNum(os, "stripes", stripes);
    writeKeyNum(os, "failed_nodes", failedNodes);
    writeKeyNum(os, "requests_per_client",
                static_cast<double>(requestsPerClient));
    writeKeyNum(os, "warmup", warmup);
    os << "  \"chameleon\": {\"t_phase\": "
       << formatDouble(chameleon.tPhase) << ", \"check_period\": "
       << formatDouble(chameleon.checkPeriod)
       << ", \"straggler_slack\": "
       << formatDouble(chameleon.stragglerSlack)
       << ", \"expectation_factor\": "
       << formatDouble(chameleon.expectationFactor)
       << ", \"reorder_backoff\": "
       << formatDouble(chameleon.reorderBackoff)
       << ", \"reordering\": "
       << (chameleon.enableReordering ? "true" : "false")
       << ", \"retuning\": "
       << (chameleon.enableRetuning ? "true" : "false")
       << ", \"priority\": \"" << priorityKey(chameleon.priority)
       << "\"},\n";
    os << "  \"session\": {\"max_in_flight\": "
       << session.maxInFlight << "},\n";
    os << "  \"retry\": {\"max_retries\": " << retry.maxRetries
       << ", \"backoff\": " << formatDouble(retry.backoff) << "},\n";
    os << "  \"topology\": ";
    writeString(os, dag::topologyKey(topology));
    os << ",\n";
    os << "  \"stragglers\": ";
    writeString(os, stragglerSpecStr(stragglers));
    os << ",\n  \"faults\": ";
    writeString(os, faults.str());
    os << ",\n  \"chaos\": {\"rate\": " << formatDouble(chaosRate)
       << ", \"seed\": "
       << formatDouble(static_cast<double>(chaosSeed))
       << ", \"horizon\": " << formatDouble(chaosHorizon)
       << ", \"bitrot_rate\": " << formatDouble(bitrotRate)
       << "},\n";
    os << "  \"scrub\": {\"enabled\": "
       << (scrub.enabled ? "true" : "false")
       << ", \"rate\": " << formatDouble(scrub.rate)
       << ", \"interval\": " << formatDouble(scrub.tickInterval)
       << ", \"adaptive\": " << (scrub.adaptive ? "true" : "false")
       << ", \"adaptive_floor\": "
       << formatDouble(scrub.adaptiveFloor)
       << ", \"max_in_flight\": " << scrub.maxInFlight
       << ", \"risk_margin\": " << scrub.riskMargin
       << ", \"verify_reads\": "
       << (scrub.verifyReads ? "true" : "false")
       << ", \"verify_decode\": "
       << (scrub.verifyDecode ? "true" : "false") << "},\n";
    os << "  \"degraded\": {\"enabled\": "
       << (degraded.enabled ? "true" : "false")
       << ", \"hedge\": " << (degraded.hedge ? "true" : "false")
       << ", \"hedge_multiplier\": "
       << formatDouble(degraded.hedgeMultiplier)
       << ", \"hedge_min_delay\": "
       << formatDouble(degraded.hedgeMinDelay)
       << ", \"max_hedges\": " << degraded.maxHedges
       << ", \"max_in_flight\": " << degraded.maxInFlight << "},\n";
    os << "  \"scanner\": {\"enabled\": "
       << (scanner.enabled ? "true" : "false")
       << ", \"batch\": " << scanner.batchSize
       << ", \"interval\": " << formatDouble(scanner.tickInterval)
       << ", \"risk_margin\": " << scanner.riskMargin
       << ", \"max_total_jobs\": " << scanner.queue.maxTotalJobs
       << ", \"max_node_jobs\": " << scanner.queue.maxNodeJobs
       << "},\n";
    writeKeyNum(os, "seed", static_cast<double>(seed));
    writeKeyNum(os, "sim_time_cap", simTimeCap, "\n");
    os << "}\n";
    return os.str();
}

ExperimentConfig
ScenarioSpec::toConfig() const
{
    ExperimentConfig cfg;
    static_cast<RunSettings &>(cfg) = *this;
    std::string err;
    cfg.code = ec::tryMakeCode(code, &err);
    if (!cfg.code || !tryResolveTrace(trace, &cfg.trace, &err))
        CHAMELEON_PANIC("scenario: ", err);
    return cfg;
}

} // namespace runtime
} // namespace chameleon
