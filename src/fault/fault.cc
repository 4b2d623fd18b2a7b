#include "fault/fault.hh"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kNodeCrash:
        return "crash";
      case FaultKind::kSlowDisk:
        return "slowdisk";
      case FaultKind::kLinkDegrade:
        return "linkdeg";
      case FaultKind::kMonitorBlackout:
        return "blackout";
      case FaultKind::kBitRot:
        return "bitrot";
    }
    CHAMELEON_PANIC("unknown fault kind");
}

namespace {

std::optional<FaultKind>
parseKind(const std::string &name, std::string &err)
{
    if (name == "crash")
        return FaultKind::kNodeCrash;
    if (name == "slowdisk")
        return FaultKind::kSlowDisk;
    if (name == "linkdeg")
        return FaultKind::kLinkDegrade;
    if (name == "blackout")
        return FaultKind::kMonitorBlackout;
    if (name == "bitrot")
        return FaultKind::kBitRot;
    err = "unknown fault kind '" + name +
          "' (want crash|slowdisk|linkdeg|blackout|bitrot)";
    return std::nullopt;
}

std::optional<double>
parseNum(const std::string &s, const char *what, std::string &err)
{
    std::size_t used = 0;
    double v = 0.0;
    try {
        v = std::stod(s, &used);
    } catch (...) {
        used = 0;
    }
    if (used != s.size() || s.empty()) {
        err = std::string("malformed ") + what + " '" + s +
              "' in fault spec";
        return std::nullopt;
    }
    return v;
}

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

std::optional<FaultSchedule>
parseImpl(const std::string &spec, std::string &err)
{
    FaultSchedule out;
    for (const std::string &item : splitOn(spec, ';')) {
        if (item.empty())
            continue;
        auto fields = splitOn(item, ':');
        // First field: kind@T.
        auto at_pos = fields[0].find('@');
        if (at_pos == std::string::npos) {
            err = "fault event '" + item + "' lacks kind@time";
            return std::nullopt;
        }
        FaultEvent ev;
        auto kind = parseKind(fields[0].substr(0, at_pos), err);
        if (!kind)
            return std::nullopt;
        ev.kind = *kind;
        auto at = parseNum(fields[0].substr(at_pos + 1), "time", err);
        if (!at)
            return std::nullopt;
        ev.at = *at;
        for (std::size_t i = 1; i < fields.size(); ++i) {
            auto eq = fields[i].find('=');
            if (eq == std::string::npos) {
                err = "fault option '" + fields[i] +
                      "' is not key=value";
                return std::nullopt;
            }
            std::string key = fields[i].substr(0, eq);
            std::string val = fields[i].substr(eq + 1);
            std::optional<double> num;
            if (key == "node") {
                if (!(num = parseNum(val, "node", err)))
                    return std::nullopt;
                ev.node = static_cast<NodeId>(*num);
            } else if (key == "factor") {
                if (!(num = parseNum(val, "factor", err)))
                    return std::nullopt;
                ev.factor = *num;
            } else if (key == "dur") {
                if (!(num = parseNum(val, "duration", err)))
                    return std::nullopt;
                ev.duration = *num;
            } else {
                err = "unknown fault option '" + key +
                      "' (want node|factor|dur)";
                return std::nullopt;
            }
        }
        out.events.push_back(ev);
    }
    std::stable_sort(out.events.begin(), out.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    return out;
}

} // namespace

FaultSchedule
FaultSchedule::parse(const std::string &spec)
{
    std::string err;
    auto parsed = parseImpl(spec, err);
    if (!parsed)
        CHAMELEON_PANIC("bad fault spec: ", err);
    return *parsed;
}

std::optional<FaultSchedule>
FaultSchedule::tryParse(const std::string &spec, std::string *error)
{
    std::string err;
    auto parsed = parseImpl(spec, err);
    if (!parsed && error)
        *error = err;
    return parsed;
}

std::string
FaultSchedule::str() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const FaultEvent &ev = events[i];
        if (i)
            os << ';';
        os << faultKindName(ev.kind) << '@' << ev.at;
        if (ev.node != kInvalidNode)
            os << ":node=" << ev.node;
        if (ev.kind == FaultKind::kSlowDisk ||
            ev.kind == FaultKind::kLinkDegrade)
            os << ":factor=" << ev.factor;
        if (ev.duration > 0)
            os << ":dur=" << ev.duration;
    }
    return os.str();
}

ChaosConfig
ChaosConfig::fromRate(double events_per_second, SimTime horizon)
{
    CHAMELEON_ASSERT(events_per_second >= 0, "negative chaos rate");
    ChaosConfig cfg;
    cfg.horizon = horizon;
    cfg.crashRate = events_per_second * 0.15;
    cfg.slowDiskRate = events_per_second * 0.25;
    cfg.linkRate = events_per_second * 0.50;
    cfg.blackoutRate = events_per_second * 0.10;
    return cfg;
}

FaultSchedule
generateChaos(const ChaosConfig &config, int num_nodes, uint64_t seed)
{
    CHAMELEON_ASSERT(num_nodes >= 1, "empty cluster");
    Rng rng(seed);
    FaultSchedule out;

    struct KindRate
    {
        FaultKind kind;
        double rate;
    };
    const KindRate kinds[] = {
        {FaultKind::kNodeCrash, config.crashRate},
        {FaultKind::kSlowDisk, config.slowDiskRate},
        {FaultKind::kLinkDegrade, config.linkRate},
        {FaultKind::kMonitorBlackout, config.blackoutRate},
        // Last so enabling bit rot never perturbs the rng.split()
        // sequence of the pre-existing kinds: same seed, same
        // crash/throttle/blackout schedule, bit rot layered on top.
        {FaultKind::kBitRot, config.bitrotRate},
    };
    for (const KindRate &kr : kinds) {
        if (kr.rate <= 0)
            continue;
        Rng stream = rng.split();
        SimTime t = stream.exponential(1.0 / kr.rate);
        while (t < config.horizon) {
            FaultEvent ev;
            ev.at = t;
            ev.kind = kr.kind;
            switch (kr.kind) {
              case FaultKind::kNodeCrash:
                ev.node = static_cast<NodeId>(
                    stream.below(static_cast<uint64_t>(num_nodes)));
                ev.duration =
                    config.meanCrashDowntime > 0
                        ? stream.exponential(config.meanCrashDowntime)
                        : 0.0;
                break;
              case FaultKind::kSlowDisk:
              case FaultKind::kLinkDegrade:
                ev.node = static_cast<NodeId>(
                    stream.below(static_cast<uint64_t>(num_nodes)));
                ev.factor = stream.uniform(config.minFactor,
                                           config.maxFactor);
                ev.duration = stream.exponential(config.meanThrottle);
                break;
              case FaultKind::kMonitorBlackout:
                ev.duration = stream.exponential(config.meanThrottle);
                break;
              case FaultKind::kBitRot:
                ev.node = static_cast<NodeId>(
                    stream.below(static_cast<uint64_t>(num_nodes)));
                break;
            }
            out.events.push_back(ev);
            t += stream.exponential(1.0 / kr.rate);
        }
    }
    std::stable_sort(out.events.begin(), out.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    return out;
}

FaultInjector::FaultInjector(cluster::Cluster &cluster,
                             cluster::StripeTable &stripes,
                             InjectorHooks hooks)
    : cluster_(cluster), stripes_(stripes), hooks_(std::move(hooks)),
      minLiveNodes_(stripes.code().n()),
      metCrashes_(telemetry::metrics().counter("fault.crashes")),
      metRejoins_(telemetry::metrics().counter("fault.rejoins")),
      metThrottles_(telemetry::metrics().counter("fault.throttles")),
      metBlackouts_(telemetry::metrics().counter("fault.blackouts")),
      metBitrots_(telemetry::metrics().counter("fault.bitrots")),
      metSkipped_(telemetry::metrics().counter("fault.skipped"))
{
}

void
FaultInjector::setMinLiveNodes(int n)
{
    CHAMELEON_ASSERT(n >= 1, "minLiveNodes must be positive");
    minLiveNodes_ = n;
}

int
FaultInjector::liveNodes() const
{
    // O(1) off the stripe table's failure counter: this runs inside
    // every crash event, where an O(nodes) scan would dominate at
    // 5000-node scale.
    return stripes_.numNodes() - stripes_.failedNodeCount();
}

void
FaultInjector::arm(const FaultSchedule &schedule, Rng rng)
{
    CHAMELEON_ASSERT(!armed_, "injector already armed");
    armed_ = true;
    rng_ = rng;
    auto &sim = cluster_.simulator();
    for (const FaultEvent &ev : schedule.events) {
        CHAMELEON_ASSERT(ev.at >= 0, "fault in the past");
        pendingEvents_.push_back(sim.scheduleAfter(
            ev.at, [this, ev] { apply(ev); }));
    }
}

void
FaultInjector::disarm()
{
    for (auto &handle : pendingEvents_)
        handle.cancel();
    pendingEvents_.clear();
}

NodeId
FaultInjector::pickLiveNode()
{
    std::vector<NodeId> live;
    for (NodeId n = 0; n < stripes_.numNodes(); ++n)
        if (!stripes_.nodeFailed(n))
            live.push_back(n);
    if (live.empty())
        return kInvalidNode;
    return live[rng_.below(live.size())];
}

void
FaultInjector::record(const FaultEvent &ev, bool applied)
{
    InjectedFault entry;
    entry.at = cluster_.simulator().now();
    entry.kind = ev.kind;
    entry.node = ev.node;
    entry.factor = ev.factor;
    entry.duration = ev.duration;
    entry.applied = applied;
    log_.push_back(entry);
    if (applied)
        ++applied_;
    else
        metSkipped_.add();
    CHAMELEON_TELEM(telemetry::tracer().instant(
        entry.at, telemetry::kTrackFault, "fault",
        faultKindName(ev.kind),
        {{"node", ev.node},
         {"factor", ev.factor},
         {"dur_s", ev.duration},
         {"applied", applied ? 1 : 0}}));
}

void
FaultInjector::apply(FaultEvent ev)
{
    switch (ev.kind) {
      case FaultKind::kNodeCrash:
        applyCrash(ev);
        break;
      case FaultKind::kSlowDisk:
      case FaultKind::kLinkDegrade:
        applyThrottle(ev);
        break;
      case FaultKind::kMonitorBlackout:
        applyBlackout(ev);
        break;
      case FaultKind::kBitRot:
        applyBitRot(ev);
        break;
    }
}

void
FaultInjector::applyCrash(FaultEvent ev)
{
    if (ev.node == kInvalidNode || stripes_.nodeFailed(ev.node))
        ev.node = pickLiveNode();
    if (ev.node == kInvalidNode || liveNodes() <= minLiveNodes_) {
        record(ev, false);
        return;
    }
    // Fail the metadata first so every observer sees a consistent
    // dead state before the repair layer reacts. On the scanner
    // path the failure is deferred: chunkLost() flips immediately
    // (derived from the pending-wipe flag), but no stripe is
    // visited here — the scanner enqueues the losses batch by
    // batch.
    std::vector<cluster::FailedChunk> lost;
    if (deferred_)
        stripes_.failNodeDeferred(ev.node);
    else
        lost = stripes_.failNode(ev.node);
    cluster_.markNodeDown(ev.node);
    metCrashes_.add();
    record(ev, true);
    if (hooks_.onCrash)
        hooks_.onCrash(ev.node, lost);
    if (ev.duration > 0) {
        const NodeId node = ev.node;
        pendingEvents_.push_back(cluster_.simulator().scheduleAfter(
            ev.duration, [this, node] {
                // Delayed rejoin: the node returns empty; its chunks
                // stay lost and must still be repaired elsewhere.
                stripes_.rejoinNode(node);
                cluster_.markNodeUp(node);
                metRejoins_.add();
                CHAMELEON_TELEM(telemetry::tracer().instant(
                    cluster_.simulator().now(), telemetry::kTrackFault,
                    "fault", "rejoin", {{"node", node}}));
                if (hooks_.onRejoin)
                    hooks_.onRejoin(node);
            }));
    }
}

void
FaultInjector::applyThrottle(const FaultEvent &ev)
{
    FaultEvent picked = ev;
    if (picked.node == kInvalidNode)
        picked.node = pickLiveNode();
    if (picked.node == kInvalidNode || picked.factor <= 0 ||
        picked.factor >= 1.0) {
        record(picked, false);
        return;
    }
    auto &net = cluster_.network();
    std::vector<sim::ResourceId> targets;
    if (picked.kind == FaultKind::kSlowDisk) {
        targets.push_back(cluster_.disk(picked.node));
    } else {
        targets.push_back(cluster_.uplink(picked.node));
        targets.push_back(cluster_.downlink(picked.node));
    }
    for (auto id : targets)
        net.setCapacity(id, net.capacity(id) * picked.factor);
    metThrottles_.add();
    record(picked, true);
    if (picked.duration > 0) {
        const double factor = picked.factor;
        pendingEvents_.push_back(cluster_.simulator().scheduleAfter(
            picked.duration, [this, targets, factor] {
                auto &n = cluster_.network();
                for (auto id : targets)
                    n.setCapacity(id, n.capacity(id) / factor);
            }));
    }
}

void
FaultInjector::applyBitRot(FaultEvent ev)
{
    if (ev.node == kInvalidNode || stripes_.nodeFailed(ev.node))
        ev.node = pickLiveNode();
    if (ev.node == kInvalidNode) {
        record(ev, false);
        return;
    }
    // Rot a uniformly drawn live, not-yet-corrupt chunk on the node;
    // nothing observable changes — no flows abort, no metadata
    // generation bumps — until a scrub or verify-on-read catches it.
    std::vector<cluster::FailedChunk> victims;
    for (const auto &fc : stripes_.chunksOnNode(ev.node)) {
        if (!stripes_.chunkLost(fc.stripe, fc.chunk) &&
            !stripes_.chunkCorrupt(fc.stripe, fc.chunk))
            victims.push_back(fc);
    }
    if (victims.empty()) {
        record(ev, false);
        return;
    }
    const auto fc = victims[rng_.below(victims.size())];
    stripes_.markCorrupt(fc.stripe, fc.chunk);
    metBitrots_.add();
    record(ev, true);
    if (hooks_.onBitRot)
        hooks_.onBitRot(fc, ev.node);
}

void
FaultInjector::applyBlackout(const FaultEvent &ev)
{
    metBlackouts_.add();
    record(ev, true);
    if (hooks_.onBlackoutStart)
        hooks_.onBlackoutStart();
    if (ev.duration > 0) {
        pendingEvents_.push_back(cluster_.simulator().scheduleAfter(
            ev.duration, [this] {
                CHAMELEON_TELEM(telemetry::tracer().instant(
                    cluster_.simulator().now(), telemetry::kTrackFault,
                    "fault", "blackout-end", {}));
                if (hooks_.onBlackoutEnd)
                    hooks_.onBlackoutEnd();
            }));
    }
}

} // namespace fault
} // namespace chameleon
