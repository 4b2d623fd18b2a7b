/**
 * @file
 * The three workloads. Why each exists, and what it should and should
 * not move, is recorded in BENCHMARK.json and README.md.
 *
 *   ycsb-paper   the paper's default cluster under YCSB-A, cells
 *                `chameleon` and `cr` (eager path, tree executor);
 *   scale-chain  1000 nodes, 10^6 stripes, no foreground traffic,
 *                cell `ecpipe_chain` (scanner + tiered queue, ECPipe
 *                chain on the DAG engine, 16 slices);
 *   codec        real bytes: encode, repairCompute and relay-tree
 *                evaluatePlan for rs(10,4) and rs(24,8) over a stripe
 *                pool larger than the last-level cache.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/stripe_table.hh"
#include "dag/dag.hh"
#include "ec/factory.hh"
#include "layer_trace.hh"
#include "repair/plan.hh"
#include "runtime/runtime.hh"
#include "telemetry/telemetry.hh"
#include "traffic/trace_profile.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace chameleon;
using runtime::Algorithm;

/**
 * Times `setup` at least `min_reps` times and until `min_seconds`
 * have been spent (at most `max_reps`), one "setup" record each.
 * Only the last repetition's result is kept by the caller.
 */
void
timeSetups(int min_reps, double min_seconds, int max_reps,
           const std::function<void()> &setup)
{
    double total = 0.0;
    for (int rep = 0;
         rep < min_reps || (total < min_seconds && rep < max_reps);
         ++rep) {
        const double t0 = nowSeconds();
        setup();
        const double dt = nowSeconds() - t0;
        total += dt;
        JsonLine().str("kind", "setup").num("seconds", dt).emit();
    }
}

/** Runs at least `min_passes` passes (capped by opts.maxPasses), then
 * more until the next one is expected to end after opts.seconds. */
void
timePasses(const Options &opts, int min_passes,
           const std::function<void(int)> &pass)
{
    const double start = nowSeconds();
    double last = 0.0;
    for (int i = 0; i < opts.maxPasses; ++i) {
        const double t0 = nowSeconds();
        if (i >= min_passes && t0 - start + last > opts.seconds)
            break;
        pass(i);
        last = nowSeconds() - t0;
    }
}

// ---- Simulated workloads.

/** Counters read from each run's metrics snapshot. */
constexpr const char *kCounters[] = {
    "sim.events_executed",
    "sim.rate_recomputes",
    "sim.rate_recompute_flow_visits",
    "sim.solver.dirty_resource_visits",
    "sim.flows.started",
    "repair.exec.slices",
    "repair.exec.dag.slices",
    "repair.exec.combined_slices",
    "repair.exec.aborts",
    "repair.chameleon.dispatches",
    "repair.chameleon.checks",
    "repair.chameleon.stragglers",
    "repair.chameleon.retunes",
    "repair.chameleon.reorders",
    "monitor.samples",
    "scanner.stripes_scanned",
    "repair.queue.scan_steps",
    "repair.queue.memo_skips",
    "repair.queue.admitted",
    "traffic.requests",
};

struct SimCell
{
    std::string name;
    Algorithm algorithm = Algorithm::kCr;
    runtime::ExperimentConfig config;
    /** Chunks node 0 hosts in a standalone placement built with the
     * runtime's seed derivation: what the cell must repair. */
    int64_t lost = 0;
};

/**
 * Chunks node 0 hosts after the runtime's placement step for
 * `config`: Rng(seed).split() feeds placement, with either an exact
 * stripe count or growth until node 0 hosts chunksToRepair chunks.
 */
int64_t
chunksOnNodeZero(const runtime::ExperimentConfig &config)
{
    Rng rng(config.seed);
    Rng placement = rng.split();
    cluster::StripeTable table(config.code, config.cluster.numNodes);
    if (config.stripes > 0) {
        table.createStripes(config.stripes, placement);
    } else {
        while (static_cast<int>(table.chunksOnNode(0).size()) <
               config.chunksToRepair)
            table.createStripes(1, placement);
    }
    return static_cast<int64_t>(table.chunksOnNode(0).size());
}

double
counterValue(const telemetry::MetricsSnapshot &snap, const char *name)
{
    const auto *s = snap.find(name);
    return s ? s->value : 0.0;
}

/** Every simulated output of the cell plus its counters. */
std::string
fingerprint(const runtime::ExperimentResult &r,
            const telemetry::MetricsSnapshot &snap)
{
    Fingerprint fp;
    fp.add(r.repairThroughput).add(r.repairTime);
    fp.add(int64_t{r.chunksRepaired}).add(int64_t{r.chunksUnrecoverable});
    fp.add(int64_t{r.crashReplans}).add(int64_t{r.faultsInjected});
    fp.add(r.p99LatencyMs).add(r.meanLatencyMs);
    fp.add(static_cast<int64_t>(r.latency.count)).add(r.latency.mean);
    fp.add(r.latency.p50).add(r.latency.p99).add(r.latency.max);
    fp.add(r.traceTime).add(int64_t{r.phases});
    fp.add(int64_t{r.retunes}).add(int64_t{r.reorders});
    for (const auto *links : {&r.uplinks, &r.downlinks}) {
        for (const auto &l : *links) {
            fp.add(int64_t{l.node}).add(l.foregroundMean);
            fp.add(l.repairMean).add(l.foregroundFluctuation);
        }
    }
    for (double v : r.throughputTimeline)
        fp.add(v);
    for (double v : r.trafficTimeline)
        fp.add(v);
    for (const char *name : kCounters)
        fp.add(counterValue(snap, name));
    return fp.hex();
}

/** One pass over `cells`: runs, checks and records each. */
void
simPass(const Options &opts, int index, const std::vector<SimCell> &cells,
        std::vector<std::string> &reference, Checks &checks)
{
    std::string cell_records = "[";
    int64_t events = 0;
    const double pass_start = nowSeconds();
    std::string err;
    if (opts.traced && !startLayerClock(err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        std::exit(2);
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const SimCell &cell = cells[c];
        // Host time at every timeline sample (each 5 simulated
        // seconds of the repair window) splits the cell into segments
        // that do the same work in every pass of the run.
        std::vector<double> stamps = {nowSeconds()};
        runtime::ExperimentHooks hooks;
        hooks.onSample = [&stamps](SimTime, traffic::ForegroundDriver *) {
            stamps.push_back(nowSeconds());
        };
        runtime::ExperimentResult r;
        telemetry::MetricsSnapshot snap;
        {
            runtime::RuntimeOptions ro;
            ro.isolateTelemetry = true;
            runtime::Runtime rt(cell.algorithm, cell.config, ro);
            r = rt.run(hooks);
            snap = rt.runTelemetry()->metrics.snapshot();
        }
        stamps.push_back(nowSeconds());
        std::string segments = "[";
        for (std::size_t i = 1; i < stamps.size(); ++i) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%s%.9g", i > 1 ? ", " : "",
                          stamps[i] - stamps[i - 1]);
            segments += buf;
        }
        const std::string fp = fingerprint(r, snap);
        if (index == 0)
            reference.push_back(fp);

        checks.begin(cell.name + " pass " + std::to_string(index));
        checks.expect("repaired + unrecoverable == lost (" +
                          std::to_string(r.chunksRepaired) + " + " +
                          std::to_string(r.chunksUnrecoverable) +
                          " vs " + std::to_string(cell.lost) + ")",
                      r.chunksRepaired + r.chunksUnrecoverable ==
                          cell.lost);
        checks.expect("no chunk unrecoverable",
                      r.chunksUnrecoverable == 0);
        checks.expect("repair throughput > 0", r.repairThroughput > 0);
        checks.expect("same fingerprint as pass 0", fp == reference[c]);

        JsonLine counters;
        for (const char *name : kCounters)
            counters.num(name, counterValue(snap, name));
        const int64_t cell_events = static_cast<int64_t>(
            counterValue(snap, "sim.events_executed"));
        events += cell_events;
        JsonLine rec;
        rec.str("name", cell.name)
            .integer("events", cell_events)
            .num("repair_mbps", r.repairThroughput / 1e6)
            .num("repair_s", r.repairTime)
            .integer("repaired", r.chunksRepaired)
            .integer("unrecoverable", r.chunksUnrecoverable)
            .integer("lost", cell.lost)
            .num("fg_p50_ms", r.latency.p50 * 1e3)
            .num("fg_p99_ms", r.latency.p99 * 1e3)
            .integer("fg_samples", static_cast<int64_t>(r.latency.count))
            .str("fingerprint", fp)
            .raw("counters", counters.text())
            .raw("segments", segments + "]");
        cell_records += (c ? ", " : "") + rec.text();
    }
    const LayerSamples samples =
        opts.traced ? stopLayerClock() : LayerSamples{};
    const double pass_wall = nowSeconds() - pass_start;
    JsonLine()
        .str("kind", "pass")
        .integer("index", index)
        .num("wall_s", pass_wall)
        .integer("events", events)
        .raw("cells", cell_records + "]")
        .emit();
    if (opts.traced) {
        JsonLine self;
        for (std::size_t l = 0; l < kLayerCount; ++l)
            self.integer(layerName(static_cast<Layer>(l)),
                         static_cast<int64_t>(samples.self[l]));
        JsonLine()
            .str("kind", "layers")
            .num("wall_s", pass_wall)
            .num("period_s", kSamplePeriodSeconds)
            .raw("samples", self.text())
            .integer("hook_samples", static_cast<int64_t>(samples.hooks))
            .emit();
    }
}

void
runSim(const Options &opts, const std::function<std::vector<SimCell>()> &make,
       int setup_reps, double setup_seconds, int min_passes, Checks &checks)
{
    std::vector<SimCell> cells;
    timeSetups(setup_reps, setup_seconds, 1000, [&] {
        cells = make();
        for (SimCell &cell : cells)
            cell.lost = chunksOnNodeZero(cell.config);
    });
    std::vector<std::string> reference;
    timePasses(opts, min_passes, [&](int i) {
        simPass(opts, i, cells, reference, checks);
    });
}

/** The paper's default cluster (Section V-A): 20 nodes, RS(10,4),
 * 2.5 Gb/s links, 500 MB/s disks, 4 YCSB-A clients, 200 x 64 MiB
 * chunks, 2 MiB slices as chameleon-sim runs it. */
std::vector<SimCell>
ycsbPaperCells(const Options &opts)
{
    std::vector<SimCell> cells;
    for (auto [name, algo] : {std::pair{"chameleon", Algorithm::kChameleon},
                              std::pair{"cr", Algorithm::kCr}}) {
        SimCell cell;
        cell.name = name;
        cell.algorithm = algo;
        cell.config.chunksToRepair = opts.shortMode ? 10 : 200;
        cell.config.exec.sliceSize = 2 * units::MiB;
        cell.config.trace = traffic::ycsbA();
        cell.config.seed = opts.seed;
        cells.push_back(std::move(cell));
    }
    return cells;
}

/** fig_scale's scanner path at 1000 nodes / 10^6 stripes, with every
 * repair an ECPipe chain on the DAG engine. */
std::vector<SimCell>
scaleChainCells(const Options &opts)
{
    SimCell cell;
    cell.name = "ecpipe_chain";
    cell.algorithm = Algorithm::kEcpipe;
    auto &cfg = cell.config;
    cfg.cluster.numNodes = opts.shortMode ? 100 : 1000;
    cfg.cluster.numClients = 0;
    cfg.stripes = opts.shortMode ? 20000 : 1000000;
    cfg.trace.reset();
    cfg.scanner.enabled = true;
    cfg.scanner.batchSize = 65536;
    cfg.scanner.tickInterval = 1.0;
    cfg.scanner.queue.maxTotalJobs = 64;
    cfg.scanner.queue.maxNodeJobs = 2;
    cfg.topology = *dag::topologyFromKey("chain");
    cfg.exec.slices = 16;
    cfg.seed = opts.seed;
    return {cell};
}

// ---- Codec workload.

struct CodecStripe
{
    /** All n chunks; index `failed` holds the original bytes. */
    std::vector<ec::Buffer> chunks;
    ChunkIndex failed = 0;
    ec::RepairSpec spec;
    repair::ChunkRepairPlan plan;
};

struct CodecPool
{
    std::string spec;
    std::shared_ptr<const ec::ErasureCode> code;
    std::vector<CodecStripe> stripes;
};

/** Stripes per code: each full-size pool alone exceeds a 105 MiB
 * last-level cache (rs(10,4): 10 x 14 MiB, rs(24,8): 4 x 32 MiB). */
struct CodecShape
{
    const char *spec;
    int stripes;
};
constexpr CodecShape kCodecs[] = {{"rs(10,4)", 10}, {"rs(24,8)", 4}};

std::vector<CodecPool>
buildCodecPools(const Options &opts)
{
    const std::size_t chunk = opts.shortMode ? 64 * 1024 : 1 << 20;
    Rng rng(opts.seed);
    std::vector<CodecPool> pools;
    for (const CodecShape &shape : kCodecs) {
        CodecPool pool;
        pool.spec = shape.spec;
        pool.code = ec::makeCode(shape.spec);
        const ec::ErasureCode &code = *pool.code;
        Rng crng = rng.split();
        const int count = opts.shortMode ? 2 : shape.stripes;
        for (int s = 0; s < count; ++s) {
            CodecStripe st;
            std::vector<ec::Buffer> data(static_cast<std::size_t>(code.k()));
            for (auto &b : data) {
                b.resize(chunk);
                for (std::size_t off = 0; off < chunk; off += 8) {
                    const uint64_t w = crng.next();
                    std::memcpy(b.data() + off, &w, 8);
                }
            }
            auto parity = code.encode(data);
            st.chunks = std::move(data);
            for (auto &p : parity)
                st.chunks.push_back(std::move(p));

            // A data chunk is lost, so every helper set includes a
            // parity chunk and the repair also checks encode().
            st.failed = static_cast<ChunkIndex>(crng.below(
                static_cast<uint64_t>(code.k())));
            std::vector<ChunkIndex> avail;
            for (ChunkIndex c = 0; c < code.n(); ++c)
                if (c != st.failed)
                    avail.push_back(c);
            st.spec = code.makeRepairSpec(st.failed, avail, crng);
            std::vector<repair::PlanSource> sources;
            for (std::size_t i = 0; i < st.spec.reads.size(); ++i) {
                repair::PlanSource src;
                src.node = static_cast<NodeId>(i + 1);
                src.chunk = st.spec.reads[i].helper;
                src.coeff = st.spec.reads[i].coeff;
                src.fraction = st.spec.reads[i].fraction;
                sources.push_back(src);
            }
            st.plan = repair::buildPprPlan(s, st.failed, 0,
                                           std::move(sources));
            pool.stripes.push_back(std::move(st));
        }
        pools.push_back(std::move(pool));
    }
    return pools;
}

void
runCodec(const Options &opts, Checks &checks)
{
    std::vector<CodecPool> pools;
    timeSetups(3, 0.0, 3, [&] {
        pools.clear();
        pools = buildCodecPools(opts);
    });

    auto &multi =
        telemetry::processMetrics().counter("gf.bytes.muladd_multi");
    std::string reference;
    timePasses(opts, 1, [&](int index) {
        const double pass_start = nowSeconds();
        const int64_t multi0 = multi.value.load();
        std::string code_records = "[";
        int64_t calls = 0;
        Fingerprint fp;
        for (std::size_t p = 0; p < pools.size(); ++p) {
            CodecPool &pool = pools[p];
            const ec::ErasureCode &code = *pool.code;
            const auto k = static_cast<std::size_t>(code.k());
            double encode_s = 0, repair_s = 0, plan_s = 0;
            int64_t encoded = 0, repaired = 0;
            for (std::size_t s = 0; s < pool.stripes.size(); ++s) {
                CodecStripe &st = pool.stripes[s];
                auto &chunks = st.chunks;
                const std::string unit =
                    pool.spec + " stripe " + std::to_string(s) +
                    " pass " + std::to_string(index);

                std::vector<ec::Buffer> data(k);
                for (std::size_t j = 0; j < k; ++j)
                    data[j] = std::move(chunks[j]);
                double t0 = nowSeconds();
                const auto parity = code.encode(data);
                encode_s += nowSeconds() - t0;
                for (std::size_t j = 0; j < k; ++j)
                    chunks[j] = std::move(data[j]);
                checks.begin(unit + " encode");
                bool same = parity.size() == chunks.size() - k;
                for (std::size_t j = 0; same && j < parity.size(); ++j)
                    same = parity[j] == chunks[k + j];
                checks.expect("parity equals the reference encode", same);

                std::vector<ec::Buffer> helpers;
                for (const auto &read : st.spec.reads)
                    helpers.push_back(std::move(
                        chunks[static_cast<std::size_t>(read.helper)]));
                t0 = nowSeconds();
                const ec::Buffer out = code.repairCompute(st.spec, helpers);
                repair_s += nowSeconds() - t0;
                for (std::size_t i = 0; i < helpers.size(); ++i)
                    chunks[static_cast<std::size_t>(
                        st.spec.reads[i].helper)] = std::move(helpers[i]);
                const ec::Buffer &original =
                    chunks[static_cast<std::size_t>(st.failed)];
                checks.begin(unit + " repairCompute");
                checks.expect("repaired bytes equal the original",
                              out == original);

                t0 = nowSeconds();
                const ec::Buffer relayed =
                    repair::evaluatePlan(st.plan, chunks);
                plan_s += nowSeconds() - t0;
                checks.begin(unit + " evaluatePlan");
                checks.expect("evaluatePlan equals repairCompute",
                              relayed == out);

                calls += 3;
                encoded += static_cast<int64_t>(k * original.size());
                repaired += static_cast<int64_t>(original.size());
                fp.add(out.data(), std::min<std::size_t>(out.size(), 4096));
            }
            JsonLine rec;
            rec.str("spec", pool.spec)
                .num("encode_s", encode_s)
                .num("repair_s", repair_s)
                .num("plan_eval_s", plan_s)
                .integer("encoded_bytes", encoded)
                .integer("repaired_bytes", repaired);
            code_records += (p ? ", " : "") + rec.text();
        }
        const int64_t multi_bytes = multi.value.load() - multi0;
        fp.add(multi_bytes);
        if (index == 0)
            reference = fp.hex();
        checks.begin("codec pass " + std::to_string(index));
        checks.expect("same fingerprint as pass 0", fp.hex() == reference);
        JsonLine()
            .str("kind", "pass")
            .integer("index", index)
            .num("wall_s", nowSeconds() - pass_start)
            .integer("events", calls)
            .integer("gf_muladd_multi_bytes", multi_bytes)
            .str("fingerprint", fp.hex())
            .raw("codes", code_records + "]")
            .emit();
    });
}

} // namespace

bool
runWorkload(const Options &opts, Checks &checks)
{
    if (opts.workload == "ycsb-paper") {
        runSim(opts, [&] { return ycsbPaperCells(opts); }, 20, 0.2, 1,
               checks);
    } else if (opts.workload == "scale-chain") {
        runSim(opts, [&] { return scaleChainCells(opts); }, 3, 0.0, 3,
               checks);
    } else if (opts.workload == "codec") {
        runCodec(opts, checks);
    } else {
        return false;
    }
    return true;
}

} // namespace perfbench
