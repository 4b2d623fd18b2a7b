/**
 * @file
 * Runtime-layer tests: ScenarioSpec JSON round-trips and rejection of
 * malformed input, splitmix seed derivation, SweepRunner determinism
 * (-j1 == -j8, the byte-identical-tables contract), ordered emission,
 * per-run telemetry scoping, and repair-driver runs that reach a
 * monitor blackout and a replicated code's helper pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "ec/factory.hh"
#include "runtime/runtime.hh"
#include "runtime/scenario.hh"
#include "runtime/sweep.hh"
#include "telemetry/telemetry.hh"

using namespace chameleon;
using namespace chameleon::runtime;

namespace {

/** A cheap config: few chunks, default cluster, optional trace. */
ExperimentConfig
tinyConfig(bool with_trace)
{
    ExperimentConfig cfg;
    cfg.chunksToRepair = 2;
    cfg.seed = 42;
    if (with_trace) {
        std::optional<traffic::TraceProfile> profile;
        EXPECT_TRUE(tryResolveTrace("ycsb-a", &profile));
        cfg.trace = profile;
    } else {
        cfg.trace.reset();
    }
    return cfg;
}

void
expectRejected(const std::string &json, const std::string &needle)
{
    std::string err;
    auto spec = ScenarioSpec::fromJson(json, &err);
    EXPECT_FALSE(spec.has_value()) << json;
    EXPECT_NE(err.find(needle), std::string::npos)
        << "error '" << err << "' lacks '" << needle << "' for "
        << json;
}

// --- ScenarioSpec round-trip --------------------------------------

TEST(Scenario, DefaultRoundTrips)
{
    ScenarioSpec spec;
    std::string err;
    auto back = ScenarioSpec::fromJson(spec.toJson(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(*back, spec);
}

/** A valid spec whose every RunSettings field differs from its
 * default. */
ScenarioSpec
everyFieldSpec()
{
    ScenarioSpec spec;
    spec.name = "kitchen sink \"quoted\"\n";
    spec.algorithm = Algorithm::kRbPpr;
    spec.code = "lrc:10,2,2";
    spec.trace = "ibm";
    spec.cluster.numNodes = 31;
    spec.cluster.numClients = 7;
    spec.cluster.uplinkBw = 1.25 * units::Gbps;
    spec.cluster.downlinkBw = 5.0 * units::Gbps;
    spec.cluster.diskBw = 217.0 * units::MBps;
    spec.cluster.usageWindow = 7.5;
    spec.cluster.racks = 4;
    spec.cluster.rackOversubscription = 4.0 / 3.0;
    spec.exec.chunkSize = 48 * units::MiB;
    spec.exec.sliceSize = 3 * units::MiB;
    spec.exec.nodeUploadSlots = 3;
    spec.exec.nodeDownloadSlots = 9;
    spec.exec.relayOverheadPerMiB = 0.0125;
    spec.exec.slices = 12;
    spec.chunksToRepair = 17;
    spec.stripes = 900;
    spec.failedNodes = 2;
    spec.requestsPerClient = 12345;
    spec.warmup = 3.25;
    spec.chameleon.tPhase = 12.5;
    spec.chameleon.checkPeriod = 0.7;
    spec.chameleon.stragglerSlack = 1.1;
    spec.chameleon.expectationFactor = 2.0 / 7.0;
    spec.chameleon.reorderBackoff = 4.5;
    spec.chameleon.enableReordering = false;
    spec.chameleon.enableRetuning = false;
    spec.chameleon.priority =
        repair::RepairPriority::kMostFailedFirst;
    spec.session.maxInFlight = 17;
    spec.retry.maxRetries = 9;
    spec.retry.backoff = 0.25;
    spec.topology = *dag::topologyFromKey("mlf:3");
    // enabled stays false here; DegradedBlockRoundTrips covers the
    // enabled path and its validation couplings.
    spec.degraded.hedge = false;
    spec.degraded.hedgeMultiplier = 2.25;
    spec.degraded.hedgeMinDelay = 0.75;
    spec.degraded.maxHedges = 2;
    spec.degraded.maxInFlight = 8;
    spec.stragglers = {
        StragglerEvent{5.0, kInvalidNode, 0.05, 15.0, true, true},
        StragglerEvent{10.5, 3, 1.0 / 3.0, 2.5, true, false},
    };
    spec.faults = fault::FaultSchedule::parse(
        "crash@5:dur=40;linkdeg@10:factor=0.2:dur=15");
    spec.chaosRate = 0.3;
    spec.chaosSeed = 777;
    spec.chaosHorizon = 64.0;
    spec.bitrotRate = 0.2;
    spec.scrub.enabled = true;
    spec.scrub.rate = 32.0 * units::MiB;
    spec.scrub.tickInterval = 0.5;
    spec.scrub.adaptive = true;
    spec.scrub.adaptiveFloor = 0.3;
    spec.scrub.maxInFlight = 2;
    spec.scrub.riskMargin = 0;
    spec.scrub.verifyReads = false;
    // enabled stays false: the spec above keeps an auto-pick
    // straggler, which the scanner path rejects.
    spec.scanner.batchSize = 512;
    spec.scanner.tickInterval = 0.25;
    spec.scanner.riskMargin = 2;
    spec.scanner.queue.maxTotalJobs = 96;
    spec.scanner.queue.maxNodeJobs = 3;
    spec.seed = 123456789;
    spec.simTimeCap = 5000.0;
    return spec;
}

TEST(Scenario, EveryFieldRoundTrips)
{
    const ScenarioSpec spec = everyFieldSpec();
    std::string err;
    auto back = ScenarioSpec::fromJson(spec.toJson(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(*back, spec);
    // And the round-tripped spec serializes identically.
    EXPECT_EQ(back->toJson(), spec.toJson());
}

TEST(Scenario, DoublesRoundTripExactly)
{
    // Values with no short decimal form must survive the trip.
    ScenarioSpec spec;
    spec.chameleon.expectationFactor = 1.0 / 3.0;
    spec.cluster.uplinkBw = 2.5 * units::Gbps * (1.0 / 7.0);
    spec.cluster.downlinkBw = spec.cluster.uplinkBw;
    auto back = ScenarioSpec::fromJson(spec.toJson());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->chameleon.expectationFactor,
              spec.chameleon.expectationFactor);
    EXPECT_EQ(back->cluster.uplinkBw, spec.cluster.uplinkBw);
}

TEST(Scenario, EmptyObjectYieldsDefaults)
{
    auto spec = ScenarioSpec::fromJson("{}");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(*spec, ScenarioSpec{});
}

TEST(Scenario, ToConfigMaterializes)
{
    // Every run setting carries over; only the code and the trace
    // are resolved into live objects.
    const ScenarioSpec spec = everyFieldSpec();
    ASSERT_TRUE(spec.validate());
    const ExperimentConfig cfg = spec.toConfig();
    EXPECT_EQ(static_cast<const RunSettings &>(cfg),
              static_cast<const RunSettings &>(spec));
    EXPECT_EQ(cfg.code->name(), "LRC(10,2,2)");
    ASSERT_TRUE(cfg.trace.has_value());
    EXPECT_EQ(cfg.trace->name, traffic::ibmObjectStore().name);
}

TEST(Scenario, NoneTraceDisablesForeground)
{
    ScenarioSpec spec;
    spec.trace = "none";
    EXPECT_FALSE(spec.toConfig().trace.has_value());
    spec.trace = "";
    EXPECT_FALSE(spec.toConfig().trace.has_value());
}

// --- ScenarioSpec rejection ---------------------------------------

TEST(Scenario, RejectsMalformedJson)
{
    expectRejected("{", "");
    expectRejected("42", "");
    expectRejected("", "");
}

TEST(Scenario, RejectsUnknownKeys)
{
    expectRejected(R"({"bogus": 1})", "bogus");
    expectRejected(R"({"cluster": {"nodez": 3}})", "nodez");
    expectRejected(R"({"chameleon": {"tphase": 1}})", "tphase");
    expectRejected(R"({"chaos": {"speed": 1}})", "speed");
}

TEST(Scenario, RejectsBadNames)
{
    expectRejected(R"({"algorithm": "warp"})", "algorithm");
    expectRejected(R"({"code": "rs:banana"})", "code");
    expectRejected(R"({"trace": "tpc-c"})", "trace");
    expectRejected(R"({"chameleon": {"priority": "fastest"}})",
                   "priority");
}

TEST(Scenario, RejectsBadSchedules)
{
    expectRejected(R"({"stragglers": "soon"})", "straggler");
    expectRejected(R"({"faults": "meteor@5"})", "fault");
}

TEST(Scenario, RejectsBadDimensions)
{
    expectRejected(R"({"cluster": {"nodes": 0}})", "nodes");
    expectRejected(R"({"cluster": {"uplink_bw": -1}})",
                   "bandwidths");
    expectRejected(R"({"chunks_to_repair": 0})", "chunks");
    expectRejected(R"({"failed_nodes": 40})", "failed");
    expectRejected(
        R"({"executor": {"chunk_size": 4, "slice_size": 8}})",
        "slice");
    expectRejected(R"({"chaos": {"rate": -0.5}})", "rate");
    expectRejected(R"({"sim_time_cap": 0})", "cap");
    expectRejected(R"({"stripes": -1})", "stripes");
    expectRejected(R"({"scanner": {"batch": 0}})", "batch");
    expectRejected(R"({"scanner": {"interval": 0}})", "interval");
    expectRejected(R"({"scanner": {"risk_margin": -1}})",
                   "risk_margin");
    expectRejected(R"({"scanner": {"max_node_jobs": 0}})", "limits");
    expectRejected(
        R"({"algorithm": "none", "scanner": {"enabled": true}})",
        "algorithm");
    expectRejected(R"({"scanner": {"enabled": true},
                       "stragglers": "5:factor=0.1:dur=10"})",
                   "straggler");
}

TEST(Scenario, RejectsWrongTypes)
{
    expectRejected(R"({"seed": "forty-two"})", "seed");
    expectRejected(R"({"cluster": "big"})", "cluster");
    expectRejected(R"({"chameleon": {"reordering": 3}})",
                   "reordering");
}

// --- helper parsers -----------------------------------------------

TEST(Scenario, CodeSpecs)
{
    EXPECT_NE(ec::tryMakeCode("rs:10,4"), nullptr);
    EXPECT_NE(ec::tryMakeCode("lrc:10,2,2"), nullptr);
    EXPECT_NE(ec::tryMakeCode("butterfly"), nullptr);
    EXPECT_NE(ec::tryMakeCode("rep:3"), nullptr);
    std::string err;
    EXPECT_EQ(ec::tryMakeCode("rs:10", &err), nullptr);
    EXPECT_EQ(ec::tryMakeCode("xor:2", &err), nullptr);
    EXPECT_EQ(ec::tryMakeCode("", &err), nullptr);
}

TEST(Scenario, RegistryCodeSpecsRoundTrip)
{
    // The registry grammar — including wide-RS and multi-group LRC —
    // parses and survives a full spec round-trip untouched.
    for (const char *code :
         {"rs(20,8)", "rs(24,8)", "lrc(12,2,2,2)", "lrc(24,4,2,2)",
          "butterfly", "rep(3)"}) {
        EXPECT_NE(ec::tryMakeCode(code), nullptr) << code;
        ScenarioSpec spec;
        spec.code = code;
        spec.cluster.numNodes = 40; // room for 32-chunk stripes
        std::string err;
        auto back = ScenarioSpec::fromJson(spec.toJson(), &err);
        ASSERT_TRUE(back.has_value()) << code << ": " << err;
        EXPECT_EQ(back->code, code);
        EXPECT_EQ(back->toJson(), spec.toJson());
    }
}

TEST(Scenario, MalformedCodeSpecsCarryDiagnostics)
{
    for (const char *bad :
         {"rs(10,)", "rs(,4)", "rs(10,4", "rs()", "lrc(10)",
          "rs(10,4)x", "bogus(1,2)"}) {
        std::string err;
        EXPECT_EQ(ec::tryMakeCode(bad, &err), nullptr) << bad;
        EXPECT_FALSE(err.empty()) << bad;
        // The spec-level diagnostic names the offending spec.
        expectRejected(std::string(R"({"code": ")") + bad + "\"}",
                       bad);
    }
}

TEST(Scenario, DegradedBlockRoundTrips)
{
    ScenarioSpec spec;
    spec.algorithm = Algorithm::kCr;
    spec.code = "rs(20,8)";
    spec.cluster.numNodes = 36;
    spec.degraded.enabled = true;
    spec.degraded.hedge = true;
    spec.degraded.hedgeMultiplier = 1.75;
    spec.degraded.hedgeMinDelay = 0.25;
    spec.degraded.maxHedges = 2;
    spec.degraded.maxInFlight = 16;

    std::string err;
    auto back = ScenarioSpec::fromJson(spec.toJson(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(*back, spec);
    EXPECT_EQ(back->toJson(), spec.toJson());
}

TEST(Scenario, RejectsBadDegraded)
{
    // Unknown knob inside the block.
    expectRejected(R"({"degraded": {"hedging": true}})", "hedging");
    // Knob ranges.
    expectRejected(R"({"degraded": {"hedge_multiplier": 0.5}})",
                   "hedge_multiplier");
    expectRejected(R"({"degraded": {"hedge_min_delay": -1}})",
                   "hedge_min_delay");
    expectRejected(R"({"degraded": {"max_hedges": -1}})",
                   "max_hedges");
    expectRejected(R"({"degraded": {"max_in_flight": 0}})",
                   "max_in_flight");
    // The default (chameleon) algorithm owns its own plans.
    expectRejected(R"({"degraded": {"enabled": true}})", "session");
    // Hedged attempts are direct star reconstructions: no topology
    // override underneath.
    expectRejected(R"({"algorithm": "cr", "topology": "star",
                       "degraded": {"enabled": true}})",
                   "topology");
}

TEST(Scenario, AcceptsDegradedWithScannerOrScrub)
{
    // The hedged-read manager takes work through the same enqueue()
    // as every driver, so scanner discovery and scrub detections
    // reach it like any other repair layer.
    for (const char *json :
         {R"({"algorithm": "cr", "degraded": {"enabled": true},
              "scanner": {"enabled": true}})",
          R"({"algorithm": "cr", "degraded": {"enabled": true},
              "scrub": {"enabled": true}})"}) {
        std::string err;
        EXPECT_TRUE(ScenarioSpec::fromJson(json, &err).has_value())
            << json << ": " << err;
    }
}

TEST(Scenario, RejectsBadRetry)
{
    expectRejected(R"({"retry": {"attempts": 3}})", "attempts");
    expectRejected(R"({"retry": {"max_retries": -1}})",
                   "retry.max_retries");
    expectRejected(R"({"retry": {"backoff": -1}})", "retry.backoff");
    // The per-driver spellings are gone.
    expectRejected(R"({"session": {"max_retries": 2}})", "max_retries");
    expectRejected(R"({"chameleon": {"retry_backoff": 2}})",
                   "retry_backoff");
    expectRejected(R"({"degraded": {"max_retries": 2}})", "max_retries");
}

TEST(Scenario, ValidateNamesTheField)
{
    // Specs built in code (the CLI applies its flags this way) skip
    // fromJson, so validate() must catch what would otherwise reach
    // a deep assert or a meaningless result.
    auto expectInvalid = [](const ScenarioSpec &spec,
                            const std::string &needle) {
        std::string err;
        EXPECT_FALSE(spec.validate(&err));
        EXPECT_NE(err.find(needle), std::string::npos)
            << "error '" << err << "' lacks '" << needle << "'";
    };
    ScenarioSpec spec;
    EXPECT_TRUE(spec.validate());

    ScenarioSpec disk = spec;
    disk.cluster.diskBw = 0;
    expectInvalid(disk, "cluster.disk_bw");

    ScenarioSpec link = spec;
    link.algorithm = Algorithm::kCr;
    link.cluster.uplinkBw = link.cluster.downlinkBw = 0;
    expectInvalid(link, "cluster.uplink_bw");

    ScenarioSpec chain = spec;
    chain.algorithm = Algorithm::kCr;
    chain.degraded.enabled = true;
    chain.topology = *dag::topologyFromKey("chain");
    expectInvalid(chain, "topology");

    ScenarioSpec phase = spec;
    phase.chameleon.tPhase = 0;
    expectInvalid(phase, "chameleon.t_phase");

    ScenarioSpec period = spec;
    period.chameleon.checkPeriod = -1;
    expectInvalid(period, "chameleon.check_period");

    ScenarioSpec clients = spec;
    clients.cluster.numClients = 0;
    expectInvalid(clients, "cluster.clients");
    clients.trace = "none";
    EXPECT_TRUE(clients.validate());

    ScenarioSpec racks = spec;
    racks.cluster.racks = 4;
    racks.cluster.rackOversubscription = 0.5;
    expectInvalid(racks, "cluster.rack_oversubscription");
    racks.cluster.racks = 0;
    EXPECT_TRUE(racks.validate());

    ScenarioSpec failed = spec;
    failed.failedNodes = failed.cluster.numNodes;
    expectInvalid(failed, "failed_nodes");
    // RS(10,4) on 20 nodes: 14 chunks per stripe plus the failed
    // nodes must leave a live node outside every stripe.
    failed.failedNodes = 7;
    expectInvalid(failed, "cluster.nodes");
    failed.failedNodes = 6;
    EXPECT_TRUE(failed.validate());

    // RS(10,4) places 14 chunks per stripe on distinct nodes, and a
    // repair needs one more.
    ScenarioSpec narrow = spec;
    narrow.cluster.numNodes = 13;
    expectInvalid(narrow, "cluster.nodes");
    narrow.cluster.numNodes = 14;
    expectInvalid(narrow, "cluster.nodes");
    narrow.cluster.numNodes = 15;
    EXPECT_TRUE(narrow.validate());

    ScenarioSpec wide = spec;
    wide.code = "rs(60,8)";
    wide.cluster.numNodes = 80;
    expectInvalid(wide, "code");
    wide.code = "rs(40,8)";
    wide.cluster.numNodes = 60;
    EXPECT_TRUE(wide.validate());

    // StripeTable stores node ids in 16 bits...
    ScenarioSpec huge = spec;
    huge.cluster.numNodes = 65536;
    EXPECT_TRUE(huge.validate());
    huge.cluster.numNodes = 65537;
    expectInvalid(huge, "cluster.nodes");

    // ...and packs stripe * 14 + chunk (RS(10,4)) in 32 bits.
    ScenarioSpec slots = spec;
    slots.stripes = 306783378;
    EXPECT_TRUE(slots.validate());
    slots.stripes = 306783379;
    expectInvalid(slots, "stripes");

    // Non-finite and out-of-range knobs. Each of these once reached
    // a deep assert, ran without end, exhausted memory or gave a
    // meaningless result.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<
        std::pair<std::function<void(ScenarioSpec &)>, const char *>>
        probes = {
            {[&](ScenarioSpec &s) { s.cluster.diskBw = inf; },
             "cluster.disk_bw"},
            {[&](ScenarioSpec &s) { s.cluster.uplinkBw = nan; },
             "cluster.uplink_bw"},
            {[&](ScenarioSpec &s) { s.cluster.usageWindow = -1; },
             "cluster.usage_window"},
            {[&](ScenarioSpec &s) {
                 s.cluster.racks = 2;
                 s.cluster.rackOversubscription = nan;
             },
             "cluster.rack_oversubscription"},
            {[&](ScenarioSpec &s) { s.cluster.racks = -1; },
             "cluster.racks"},
            {[&](ScenarioSpec &s) { s.exec.chunkSize = inf; },
             "executor.chunk_size"},
            {[&](ScenarioSpec &s) { s.exec.sliceSize = nan; },
             "executor.slice_size"},
            {[&](ScenarioSpec &s) { s.exec.sliceSize = 1024; },
             "executor.slice_size"},
            {[&](ScenarioSpec &s) { s.exec.nodeUploadSlots = 0; },
             "executor.upload_slots"},
            {[&](ScenarioSpec &s) { s.exec.nodeUploadSlots = -1; },
             "executor.upload_slots"},
            {[&](ScenarioSpec &s) { s.exec.nodeDownloadSlots = 0; },
             "executor.download_slots"},
            {[&](ScenarioSpec &s) { s.exec.relayOverheadPerMiB = -1; },
             "executor.relay_overhead_per_mib"},
            {[&](ScenarioSpec &s) {
                 s.algorithm = Algorithm::kCr;
                 s.session.maxInFlight = 0;
             },
             "session.max_in_flight"},
            {[&](ScenarioSpec &s) { s.warmup = inf; }, "warmup"},
            {[&](ScenarioSpec &s) { s.warmup = s.simTimeCap; }, "warmup"},
            {[&](ScenarioSpec &s) { s.chameleon.tPhase = nan; },
             "chameleon.t_phase"},
            {[&](ScenarioSpec &s) { s.chameleon.expectationFactor = -1; },
             "chameleon.expectation_factor"},
            {[&](ScenarioSpec &s) { s.chameleon.stragglerSlack = -5; },
             "chameleon.straggler_slack"},
            {[&](ScenarioSpec &s) { s.chameleon.reorderBackoff = -1; },
             "chameleon.reorder_backoff"},
            {[&](ScenarioSpec &s) { s.retry.backoff = inf; },
             "retry.backoff"},
            {[&](ScenarioSpec &s) { s.chaosRate = nan; }, "chaos.rate"},
            {[&](ScenarioSpec &s) {
                 s.chaosRate = 1;
                 s.chaosHorizon = -5;
             },
             "chaos.horizon"},
            {[&](ScenarioSpec &s) {
                 s.chaosRate = 1;
                 s.chaosHorizon = inf;
             },
             "chaos.horizon"},
            {[&](ScenarioSpec &s) {
                 s.chaosRate = 1;
                 s.chaosHorizon = 1e7;
             },
             "chaos.horizon"},
            {[&](ScenarioSpec &s) {
                 s.stragglers = {StragglerEvent{5, kInvalidNode, 0, 15}};
             },
             "stragglers[0].factor"},
            {[&](ScenarioSpec &s) {
                 s.stragglers = {StragglerEvent{5, kInvalidNode, 2, 15}};
             },
             "stragglers[0].factor"},
            {[&](ScenarioSpec &s) {
                 s.stragglers = {
                     StragglerEvent{5, kInvalidNode, 0.5, -3}};
             },
             "stragglers[0].duration"},
            {[&](ScenarioSpec &s) {
                 s.stragglers = {StragglerEvent{5, 20, 0.5, 3}};
             },
             "stragglers[0].node"},
            {[&](ScenarioSpec &s) {
                 s.faults = fault::FaultSchedule::parse("crash@-5");
             },
             "faults[0].at"},
            {[&](ScenarioSpec &s) {
                 s.faults = fault::FaultSchedule::parse("crash@5:node=99");
             },
             "faults[0].node"},
        };
    for (const auto &[mutate, needle] : probes) {
        ScenarioSpec probe = spec;
        mutate(probe);
        expectInvalid(probe, needle);
    }
}

TEST(Scenario, RejectsNonFiniteNumbers)
{
    // 1e999 parses as infinity.
    expectRejected(R"({"warmup": 1e999})", "warmup");
    expectRejected(R"({"cluster": {"disk_bw": 1e999}})",
                   "cluster.disk_bw");
    expectRejected(R"({"retry": {"backoff": 1e999}})", "retry.backoff");
}

TEST(Scenario, ConfigWithoutCodeIsInvalid)
{
    ExperimentConfig cfg;
    cfg.code.reset();
    std::string err;
    EXPECT_FALSE(cfg.validate(Algorithm::kCr, &err));
    EXPECT_NE(err.find("code"), std::string::npos) << err;
}

// --- Runtime validates what it runs ---------------------------------

/** Runs `cfg` as `algorithm`; dies on a config validate() rejects. */
void
runConfig(Algorithm algorithm, const ExperimentConfig &cfg)
{
    Runtime(algorithm, cfg).run();
}

TEST(RuntimeDeathTest, RejectsDegradedReadsForChameleonFamily)
{
    ExperimentConfig cfg = tinyConfig(false);
    cfg.degraded.enabled = true;
    EXPECT_DEATH(runConfig(Algorithm::kEtrp, cfg),
                 "invalid configuration for 'etrp': degraded.enabled "
                 "only applies to session algorithms");
}

TEST(RuntimeDeathTest, RejectsDegradedReadsWithTopologyOverride)
{
    ExperimentConfig cfg = tinyConfig(false);
    cfg.degraded.enabled = true;
    cfg.topology = *dag::topologyFromKey("chain");
    EXPECT_DEATH(runConfig(Algorithm::kCr, cfg),
                 "degraded.enabled is incompatible with a topology "
                 "override");
}

TEST(RuntimeDeathTest, RejectsTopologyOverrideForChameleonFamily)
{
    ExperimentConfig cfg = tinyConfig(false);
    cfg.topology = *dag::topologyFromKey("chain");
    EXPECT_DEATH(runConfig(Algorithm::kChameleon, cfg),
                 "topology 'chain' only applies to session algorithms");
}

TEST(RuntimeDeathTest, RejectsAutoPickedStragglerOnScannerPath)
{
    ExperimentConfig cfg = tinyConfig(false);
    cfg.scanner.enabled = true;
    cfg.stragglers = {StragglerEvent{1.0, kInvalidNode, 0.1, 5.0}};
    EXPECT_DEATH(runConfig(Algorithm::kCr, cfg),
                 "scanner path cannot auto-pick a straggler node");
}

TEST(RuntimeDeathTest, RejectsFailingEveryNode)
{
    ExperimentConfig cfg = tinyConfig(false);
    cfg.failedNodes = cfg.cluster.numNodes;
    EXPECT_DEATH(runConfig(Algorithm::kCr, cfg),
                 "failed_nodes must be in \\[1, cluster.nodes - 1\\]");
}

TEST(Scenario, StragglerGrammarRoundTrips)
{
    std::vector<StragglerEvent> events = {
        StragglerEvent{5.0, kInvalidNode, 0.05, 15.0, true, true},
        StragglerEvent{1.25, 7, 0.5, 3.0, true, false},
        StragglerEvent{2.0, 4, 0.9, 1.0, false, true},
    };
    auto spec = stragglerSpecStr(events);
    auto back = tryParseStragglers(spec);
    ASSERT_TRUE(back.has_value()) << spec;
    EXPECT_EQ(*back, events);

    EXPECT_FALSE(tryParseStragglers("nope").has_value());
    EXPECT_FALSE(tryParseStragglers("5:node=x").has_value());
    EXPECT_FALSE(tryParseStragglers("5:link=sideways").has_value());
}

// --- seed derivation ----------------------------------------------

TEST(DeriveSeed, DeterministicAndWellSpread)
{
    EXPECT_EQ(deriveSeed(42, 0), deriveSeed(42, 0));
    std::vector<uint64_t> seen;
    for (uint64_t i = 0; i < 64; ++i) {
        uint64_t s = deriveSeed(42, i);
        EXPECT_NE(s, 42u);
        for (uint64_t prev : seen)
            EXPECT_NE(s, prev) << "collision at index " << i;
        seen.push_back(s);
    }
    EXPECT_NE(deriveSeed(42, 0), deriveSeed(43, 0));
}

// --- SweepRunner --------------------------------------------------

std::vector<SweepCell>
determinismCells()
{
    std::vector<SweepCell> cells;
    int group = 0;
    for (bool with_trace : {true, false}) {
        for (auto algo : {Algorithm::kCr, Algorithm::kEcpipe,
                          Algorithm::kChameleon}) {
            SweepCell cell;
            cell.label = algorithmName(algo);
            cell.algorithm = algo;
            cell.config = tinyConfig(with_trace);
            cell.seedIndex = group;
            cells.push_back(std::move(cell));
        }
        ++group;
    }
    return cells;
}

TEST(Sweep, SameResultsAtJobs1AndJobs8)
{
    auto cells = determinismCells();
    auto run = [&](int jobs) {
        SweepOptions so;
        so.jobs = jobs;
        so.baseSeed = 42;
        so.mergeTelemetry = false;
        return SweepRunner(so).run(cells);
    };
    auto serial = run(1);
    auto parallel = run(8);
    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << cells[i].label;
}

TEST(Sweep, EmitsInCellOrder)
{
    auto cells = determinismCells();
    SweepOptions so;
    so.jobs = 8;
    so.mergeTelemetry = false;
    std::vector<std::size_t> order;
    SweepRunner(so).run(
        cells, [&](std::size_t i, const SweepCell &,
                   const ExperimentResult &) { order.push_back(i); });
    ASSERT_EQ(order.size(), cells.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Sweep, SharedSeedIndexMeansSharedWorkload)
{
    // Two cells in the same comparison group (same algorithm here, so
    // results are comparable) must see the same derived seed; a third
    // with another seedIndex must not.
    SweepCell a;
    a.algorithm = Algorithm::kCr;
    a.config = tinyConfig(true);
    a.seedIndex = 0;
    SweepCell b = a;
    SweepCell c = a;
    c.seedIndex = 1;
    SweepOptions so;
    so.jobs = 2;
    so.baseSeed = 1234;
    so.mergeTelemetry = false;
    auto results = SweepRunner(so).run({a, b, c});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0], results[1]);
    EXPECT_NE(results[0], results[2]);
}

TEST(Sweep, PinnedSeedSkipsDerivation)
{
    SweepCell pinned;
    pinned.algorithm = Algorithm::kCr;
    pinned.config = tinyConfig(false);
    pinned.config.seed = 7;
    pinned.deriveSeed = false;
    SweepCell derived = pinned;
    derived.deriveSeed = true;

    SweepOptions so;
    so.baseSeed = 99;
    so.mergeTelemetry = false;
    auto with_base = SweepRunner(so).run({pinned});
    auto no_base = SweepRunner({.jobs = 1, .baseSeed = 0,
                                .mergeTelemetry = false})
                       .run({pinned});
    // Pinned cell ignores the base seed entirely.
    EXPECT_EQ(with_base[0], no_base[0]);
}

TEST(Sweep, JobsZeroResolvesToHardwareConcurrency)
{
    SweepOptions so;
    so.jobs = 0;
    EXPECT_GE(SweepRunner(so).jobs(), 1);
}

// --- telemetry scoping --------------------------------------------

TEST(TelemetryScope, ScopedRunIsIsolated)
{
    const std::string name = "runtime_test.scoped.counter";
    telemetry::RunTelemetry run;
    {
        telemetry::ScopedTelemetry scope(run);
        telemetry::metrics().counter(name).add(3);
    }
    auto run_snap = run.metrics.snapshot();
    ASSERT_NE(run_snap.find(name), nullptr);
    EXPECT_EQ(run_snap.find(name)->value, 3.0);
    // The process registry never saw the counter.
    auto proc_snap = telemetry::metrics().snapshot();
    EXPECT_EQ(proc_snap.find(name), nullptr);
}

TEST(TelemetryScope, MergePublishesIntoProcess)
{
    const std::string name = "runtime_test.merge.counter";
    telemetry::RunTelemetry run;
    {
        telemetry::ScopedTelemetry scope(run);
        telemetry::metrics().counter(name).add(2);
    }
    telemetry::mergeIntoProcess(run);
    auto snap = telemetry::metrics().snapshot();
    const auto *merged = snap.find(name);
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->value, 2.0);
}

TEST(TelemetryScope, RuntimeCapturesIsolatedTelemetry)
{
    Runtime plain(Algorithm::kCr, tinyConfig(false));
    EXPECT_EQ(plain.runTelemetry(), nullptr);

    RuntimeOptions opts;
    opts.isolateTelemetry = true;
    Runtime isolated(Algorithm::kCr, tinyConfig(false), opts);
    ASSERT_NE(isolated.runTelemetry(), nullptr);
    isolated.run();
    // The run recorded something, and it stayed out of the process
    // registry (no "sim." instruments appear there from this run —
    // checked indirectly: the captured registry is non-empty).
    EXPECT_FALSE(
        isolated.runTelemetry()->metrics.snapshot().samples.empty());
}

/** One run with its own telemetry: the result and its metrics. */
std::pair<ExperimentResult, telemetry::MetricsSnapshot>
runIsolated(Algorithm algorithm, const ExperimentConfig &cfg)
{
    RuntimeOptions opts;
    opts.isolateTelemetry = true;
    Runtime rt(algorithm, cfg, opts);
    ExperimentResult res = rt.run();
    return {res, rt.runTelemetry()->metrics.snapshot()};
}

double
metricValue(const telemetry::MetricsSnapshot &snap, const char *name)
{
    const auto *sample = snap.find(name);
    return sample ? sample->value : 0.0;
}

TEST(RepairDriverRuns, BlackoutStopsMonitorSamplingForItsWindow)
{
    // The monitor samples every 5 s from t = 0, and faults count from
    // the end of the 16 s warm-up. A blackout from 18 s to 30 s stops
    // the monitor before the samples at 20 and 25 and restarts it at
    // 30, whose next sample (35) keeps the original phase: the run
    // loses exactly the three sample instants inside the window.
    // Without foreground traffic a stale estimate equals a fresh one,
    // so the repair itself must not change. 100 chunks keep the
    // repair going past the first sample after the window.
    ExperimentConfig cfg = tinyConfig(false);
    cfg.chunksToRepair = 100;
    const auto [plain, plain_metrics] =
        runIsolated(Algorithm::kChameleon, cfg);
    cfg.faults = fault::FaultSchedule::parse("blackout@2:dur=12");
    const auto [dark, dark_metrics] =
        runIsolated(Algorithm::kChameleon, cfg);

    EXPECT_EQ(metricValue(dark_metrics, "fault.blackouts"), 1.0);
    EXPECT_EQ(dark.faultsInjected, 1);
    EXPECT_GT(16.0 + plain.repairTime, 35.0);
    EXPECT_EQ(metricValue(plain_metrics, "monitor.samples") -
                  metricValue(dark_metrics, "monitor.samples"),
              3.0);
    EXPECT_EQ(dark.chunksRepaired, 100);
    EXPECT_EQ(dark.repairTime, plain.repairTime);
}

TEST(RepairDriverRuns, ReplicatedCodeRepairsEveryChunk)
{
    // rep(3) answers the drivers' helper-pool gate with any one
    // surviving replica.
    ExperimentConfig cfg = tinyConfig(false);
    cfg.code = ec::makeCode("rep(3)");
    cfg.chunksToRepair = 5;
    for (Algorithm algorithm : {Algorithm::kChameleon, Algorithm::kCr}) {
        SCOPED_TRACE(algorithmName(algorithm));
        Runtime rt(algorithm, cfg);
        const ExperimentResult res = rt.run();
        EXPECT_EQ(res.chunksRepaired, 5);
        EXPECT_EQ(res.chunksUnrecoverable, 0);
        EXPECT_GT(res.repairThroughput, 0.0);
    }
}

} // namespace
