#include "runtime/experiment.hh"

#include <cmath>

#include "cluster/stripe_table.hh"
#include "ec/factory.hh"
#include "runtime/runtime.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace chameleon {
namespace runtime {

RunSettings::RunSettings()
{
    // The paper's m5.xlarge instances are rated "up to 10 Gb/s" but
    // sustain far less; the cluster-wide transfer rates the paper
    // reports (~0.7 Gb/s per node during repair) imply an effective
    // sustained rate of a few Gb/s. We default to 2.5 Gb/s, which
    // reproduces the paper's absolute repair-throughput range;
    // Exp#7/Exp#13 sweep this value explicitly.
    cluster.uplinkBw = 2.5 * units::Gbps;
    cluster.downlinkBw = 2.5 * units::Gbps;
}

ExperimentConfig::ExperimentConfig() : code(ec::makeRs(10, 4)) {}

std::string
algorithmName(Algorithm algorithm)
{
    switch (algorithm) {
      case Algorithm::kNone:
        return "None";
      case Algorithm::kCr:
        return "CR";
      case Algorithm::kPpr:
        return "PPR";
      case Algorithm::kEcpipe:
        return "ECPipe";
      case Algorithm::kRbCr:
        return "RB+CR";
      case Algorithm::kRbPpr:
        return "RB+PPR";
      case Algorithm::kRbEcpipe:
        return "RB+ECPipe";
      case Algorithm::kEtrp:
        return "ETRP";
      case Algorithm::kChameleon:
        return "ChameleonEC";
      case Algorithm::kChameleonIo:
        return "ChameleonEC-IO";
    }
    CHAMELEON_PANIC("unknown algorithm");
}

std::string
algorithmKey(Algorithm algorithm)
{
    switch (algorithm) {
      case Algorithm::kNone:
        return "none";
      case Algorithm::kCr:
        return "cr";
      case Algorithm::kPpr:
        return "ppr";
      case Algorithm::kEcpipe:
        return "ecpipe";
      case Algorithm::kRbCr:
        return "rb-cr";
      case Algorithm::kRbPpr:
        return "rb-ppr";
      case Algorithm::kRbEcpipe:
        return "rb-ecpipe";
      case Algorithm::kEtrp:
        return "etrp";
      case Algorithm::kChameleon:
        return "chameleon";
      case Algorithm::kChameleonIo:
        return "chameleon-io";
    }
    CHAMELEON_PANIC("unknown algorithm");
}

std::optional<Algorithm>
algorithmFromKey(const std::string &key)
{
    static constexpr Algorithm kAll[] = {
        Algorithm::kNone,     Algorithm::kCr,
        Algorithm::kPpr,      Algorithm::kEcpipe,
        Algorithm::kRbCr,     Algorithm::kRbPpr,
        Algorithm::kRbEcpipe, Algorithm::kEtrp,
        Algorithm::kChameleon, Algorithm::kChameleonIo,
    };
    for (Algorithm a : kAll)
        if (algorithmKey(a) == key)
            return a;
    return std::nullopt;
}

bool
isChameleonFamily(Algorithm algorithm)
{
    return algorithm == Algorithm::kEtrp ||
           algorithm == Algorithm::kChameleon ||
           algorithm == Algorithm::kChameleonIo;
}

bool
isSessionAlgorithm(Algorithm algorithm)
{
    return algorithm != Algorithm::kNone &&
           !isChameleonFamily(algorithm);
}

bool
isRepairBoost(Algorithm algorithm)
{
    return algorithm == Algorithm::kRbCr ||
           algorithm == Algorithm::kRbPpr ||
           algorithm == Algorithm::kRbEcpipe;
}

repair::Topology
topologyOf(Algorithm algorithm)
{
    switch (algorithm) {
      case Algorithm::kCr:
      case Algorithm::kRbCr:
        return repair::Topology::kStar;
      case Algorithm::kPpr:
      case Algorithm::kRbPpr:
        return repair::Topology::kTree;
      case Algorithm::kEcpipe:
      case Algorithm::kRbEcpipe:
        return repair::Topology::kChain;
      default:
        CHAMELEON_PANIC("no topology for ", algorithmName(algorithm));
    }
}

bool
ExperimentConfig::validate(Algorithm algorithm, std::string *error,
                           const std::string &code_spec) const
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (!code)
        return fail("code is not set");
    const std::string code_label =
        "'" + (code_spec.empty() ? code->name() : code_spec) + "'";
    // Counts with a lower bound (the asserts Runtime would
    // otherwise hit, or a run that never ends).
    const struct
    {
        const char *key;
        int value;
        int min;
    } counts[] = {
        {"cluster.nodes", cluster.numNodes, 1},
        {"cluster.clients", cluster.numClients, 0},
        {"cluster.racks", cluster.racks, 0},
        {"executor.upload_slots", exec.nodeUploadSlots, 1},
        {"executor.download_slots", exec.nodeDownloadSlots, 1},
        {"chunks_to_repair", chunksToRepair, 1},
        {"session.max_in_flight", session.maxInFlight, 1},
        {"retry.max_retries", retry.maxRetries, 0},
        {"scanner.batch", scanner.batchSize, 1},
        {"scanner.risk_margin", scanner.riskMargin, 0},
        {"scrub.max_in_flight", scrub.maxInFlight, 1},
        {"scrub.risk_margin", scrub.riskMargin, 0},
        {"degraded.max_hedges", degraded.maxHedges, 0},
        {"degraded.max_in_flight", degraded.maxInFlight, 1},
    };
    for (const auto &c : counts)
        if (c.value < c.min)
            return fail(std::string(c.key) + " must be >= " +
                        std::to_string(c.min));
    // A real-valued knob must be finite and above `min` (or equal to
    // it when `inclusive`); each test is written so that NaN fails.
    auto real = [&](const std::string &key, double value, double min,
                    bool inclusive) {
        if (std::isfinite(value) &&
            (inclusive ? value >= min : value > min))
            return true;
        return fail(key + " must be finite and " +
                    (inclusive ? ">= " : "> ") + formatDouble(min) +
                    ", got " + formatDouble(value));
    };
    const struct
    {
        const char *key;
        double value;
        double min;
        bool inclusive;
    } reals[] = {
        {"cluster.usage_window", cluster.usageWindow, 0, false},
        {"executor.chunk_size", exec.chunkSize, 0, false},
        {"executor.slice_size", exec.sliceSize, 0, false},
        {"executor.relay_overhead_per_mib", exec.relayOverheadPerMiB, 0,
         true},
        {"warmup", warmup, 0, true},
        {"sim_time_cap", simTimeCap, 0, false},
        {"chameleon.t_phase", chameleon.tPhase, 0, false},
        {"chameleon.check_period", chameleon.checkPeriod, 0, false},
        {"chameleon.straggler_slack", chameleon.stragglerSlack, 0, true},
        {"chameleon.expectation_factor", chameleon.expectationFactor, 0,
         false},
        {"chameleon.reorder_backoff", chameleon.reorderBackoff, 0, true},
        {"retry.backoff", retry.backoff, 0, true},
        {"scanner.interval", scanner.tickInterval, 0, false},
        {"chaos.rate", chaosRate, 0, true},
        {"chaos.bitrot_rate", bitrotRate, 0, true},
        {"chaos.horizon", chaosHorizon, 0, false},
        {"scrub.rate", scrub.rate, 0, false},
        {"scrub.interval", scrub.tickInterval, 0, false},
        {"degraded.hedge_multiplier", degraded.hedgeMultiplier, 1, true},
        {"degraded.hedge_min_delay", degraded.hedgeMinDelay, 0, true},
    };
    for (const auto &r : reals)
        if (!real(r.key, r.value, r.min, r.inclusive))
            return false;
    if (cluster.numClients < 1 && trace)
        return fail("cluster.clients must be >= 1 to replay trace '" +
                    trace->name + "' (use trace none for no clients)");
    if (!std::isfinite(cluster.rackOversubscription) ||
        (cluster.racks > 0 && !(cluster.rackOversubscription >= 1.0)))
        return fail("cluster.rack_oversubscription must be finite, and "
                    ">= 1 with cluster.racks > 0, got " +
                    formatDouble(cluster.rackOversubscription));
    for (const auto &[key, bw] :
         {std::pair{"uplink_bw", cluster.uplinkBw},
          std::pair{"downlink_bw", cluster.downlinkBw},
          std::pair{"disk_bw", cluster.diskBw}})
        if (!(bw > 0) || !std::isfinite(bw))
            return fail(std::string("cluster bandwidths must be "
                                    "positive and finite: cluster.") +
                        key + " is " + formatDouble(bw));
    if (!(exec.sliceSize <= exec.chunkSize))
        return fail("executor sizes must satisfy "
                    "0 < slice_size <= chunk_size");
    if (exec.slices < 0 || exec.slices > 16384)
        return fail("executor.slices must be in [0, 16384] "
                    "(0 = derive from slice_size)");
    if (exec.slices == 0 && exec.chunkSize / exec.sliceSize > 16384)
        return fail("executor.slice_size leaves more than 16384 slices "
                    "per chunk");
    if (stripes < 0)
        return fail("stripes must be >= 0 "
                    "(0 = grow to chunks_to_repair)");
    if (failedNodes < 1 || failedNodes >= cluster.numNodes)
        return fail("failed_nodes must be in [1, cluster.nodes - 1] "
                    "(foreground traffic needs a live node)");
    if (!(warmup < simTimeCap))
        return fail("warmup must be < sim_time_cap");
    if (scanner.queue.maxTotalJobs < 1 || scanner.queue.maxNodeJobs < 1)
        return fail("scanner job limits must be >= 1");
    if (!(scrub.adaptiveFloor > 0 && scrub.adaptiveFloor <= 1))
        return fail("scrub.adaptive_floor must be in (0, 1]");
    // The generator materializes every chaos event up front.
    if ((chaosRate + bitrotRate) * chaosHorizon > 1e6)
        return fail("chaos.horizon times chaos.rate + chaos.bitrot_rate "
                    "must be at most 1e6 expected events");
    auto node_ok = [&](const std::string &key, NodeId node) {
        if (node == kInvalidNode || (node >= 0 && node < cluster.numNodes))
            return true;
        return fail(key + ".node is " + std::to_string(node) +
                    ", outside [0, cluster.nodes)");
    };
    for (std::size_t i = 0; i < stragglers.size(); ++i) {
        const StragglerEvent &ev = stragglers[i];
        const std::string key = "stragglers[" + std::to_string(i) + "]";
        if (!node_ok(key, ev.node) || !real(key + ".at", ev.at, 0, true) ||
            !real(key + ".duration", ev.duration, 0, false))
            return false;
        if (!(ev.factor > 0 && ev.factor <= 1))
            return fail(key + ".factor must be in (0, 1], got " +
                        formatDouble(ev.factor));
    }
    for (std::size_t i = 0; i < faults.events.size(); ++i) {
        const fault::FaultEvent &ev = faults.events[i];
        const std::string key = "faults[" + std::to_string(i) + "]";
        if (!node_ok(key, ev.node) || !real(key + ".at", ev.at, 0, true) ||
            !real(key + ".duration", ev.duration, 0, true) ||
            !real(key + ".factor", ev.factor, 0, true))
            return false;
    }
    // What StripeTable can address: each stripe's lost and corrupt
    // chunks as bits of a 64-bit mask, node ids in 16 bits, and
    // reverse-index slots (stripe * width + chunk) in 32 bits.
    const int width = code->n();
    if (width > 64)
        return fail("code " + code_label + " has " +
                    std::to_string(width) +
                    " chunks per stripe; at most 64 are supported");
    if (cluster.numNodes > cluster::StripeTable::kMaxNodes)
        return fail("cluster.nodes is " +
                    std::to_string(cluster.numNodes) + "; at most " +
                    std::to_string(cluster::StripeTable::kMaxNodes) +
                    " are supported (16-bit node ids)");
    const uint64_t max_stripes =
        cluster::StripeTable::kMaxSlots / static_cast<uint64_t>(width);
    if (static_cast<uint64_t>(stripes) > max_stripes)
        return fail("stripes is " + std::to_string(stripes) +
                    "; code " + code_label + " fits at most " +
                    std::to_string(max_stripes) +
                    " stripes in 2^32 chunk slots");
    // A stripe that loses one chunk keeps width - 1 chunks on live
    // nodes, and its repair needs one more live node outside it:
    // nodes - failed_nodes >= width.
    if (cluster.numNodes < width + failedNodes)
        return fail("cluster.nodes is " +
                    std::to_string(cluster.numNodes) + ", but code " +
                    code_label + " places " + std::to_string(width) +
                    " chunks per stripe on distinct nodes and " +
                    std::to_string(failedNodes) +
                    " failed node(s) leave no live node outside a "
                    "stripe to repair into: need at least " +
                    std::to_string(width + failedNodes));

    // Cross-field constraints.
    if (topology.kind != dag::RepairTopology::kAuto &&
        !isSessionAlgorithm(algorithm))
        return fail("topology '" + dag::topologyKey(topology) +
                    "' only applies to session algorithms "
                    "(cr|ppr|ecpipe|rb-*); '" +
                    algorithmKey(algorithm) +
                    "' owns its own plan shapes");
    if (scanner.enabled) {
        if (algorithm == Algorithm::kNone)
            return fail("scanner.enabled needs a repair algorithm "
                        "(the scanner has nowhere to dispatch)");
        for (const StragglerEvent &ev : stragglers)
            if (ev.node == kInvalidNode)
                return fail("scanner path cannot auto-pick a "
                            "straggler node; set node=N");
    }
    if (scrub.enabled && algorithm == Algorithm::kNone)
        return fail("scrub.enabled needs a repair algorithm "
                    "(detected corruption has nowhere to go)");
    if (degraded.enabled) {
        if (!isSessionAlgorithm(algorithm))
            return fail("degraded.enabled only applies to session "
                        "algorithms (cr|ppr|ecpipe|rb-*); '" +
                        algorithmKey(algorithm) +
                        "' owns its own plans");
        if (topology.kind != dag::RepairTopology::kAuto)
            return fail("degraded.enabled is incompatible with a "
                        "topology override (attempts are direct star "
                        "reconstructions)");
    }
    return true;
}

ExperimentResult
runExperiment(Algorithm algorithm, const ExperimentConfig &config,
              const ExperimentHooks &hooks)
{
    Runtime rt(algorithm, config);
    return rt.run(hooks);
}

} // namespace runtime
} // namespace chameleon
