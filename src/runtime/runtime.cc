#include "runtime/runtime.hh"

#include <algorithm>

#include "cluster/repair_queue.hh"
#include "cluster/replicator_scanner.hh"
#include "cluster/scrub_scanner.hh"
#include "ec/factory.hh"
#include "repair/monitor.hh"
#include "repair/strategies.hh"
#include "telemetry/telemetry.hh"
#include "traffic/foreground_driver.hh"
#include "traffic/hedged_read.hh"
#include "util/logging.hh"

namespace chameleon {
namespace runtime {

Runtime::Runtime(Algorithm algorithm, ExperimentConfig config,
                 RuntimeOptions options)
    : algorithm_(algorithm), config_(std::move(config)),
      options_(options)
{
    if (options_.isolateTelemetry)
        telem_ = std::make_unique<telemetry::RunTelemetry>();
}

Runtime::~Runtime() = default;

ExperimentResult
Runtime::run(const ExperimentHooks &hooks)
{
    CHAMELEON_ASSERT(!ran_, "Runtime is single-use");
    ran_ = true;
    std::string error;
    if (!config_.validate(algorithm_, &error))
        CHAMELEON_PANIC("invalid configuration for '",
                        algorithmKey(algorithm_), "': ", error);

    const Algorithm algorithm = algorithm_;
    const ExperimentConfig &config = config_;

    // Isolated runs record into their private context; otherwise
    // instrumentation lands in the process-wide tracer/registry
    // exactly as the sequential harness always did.
    std::optional<telemetry::ScopedTelemetry> scope;
    if (telem_)
        scope.emplace(*telem_);

    // Each experiment is its own process row in the exported trace;
    // sim time restarts at 0 per run, so runs must not share a pid.
    CHAMELEON_TELEM(
        telemetry::tracer().beginRun(algorithmName(algorithm)));

    Rng rng(config.seed);
    sim::Simulator sim;
    cluster::Cluster cluster(sim, config.cluster);
    cluster::StripeTable stripes(config.code, config.cluster.numNodes);

    // Create stripes: either an exact count (scale runs) or, by
    // default, until node 0 hosts exactly chunksToRepair chunks
    // (placement is random, so add one stripe at a time). Both
    // branches draw from the same split stream, so `stripes = 0`
    // stays bit-identical to the pre-knob behavior.
    {
        Rng placement_rng = rng.split();
        if (config.stripes > 0) {
            stripes.createStripes(config.stripes, placement_rng);
        } else {
            int guard = 0;
            while (static_cast<int>(stripes.chunksOnNode(0).size()) <
                   config.chunksToRepair) {
                stripes.createStripes(1, placement_rng);
                CHAMELEON_ASSERT(++guard < 1000000,
                                 "placement runaway");
            }
        }
    }

    // Scanner-path runs route failure discovery through the
    // background replicator scanner and its prioritized queue
    // instead of handing the repair layer an eager work list.
    const bool scan_mode =
        config.scanner.enabled && algorithm != Algorithm::kNone;
    std::unique_ptr<cluster::RepairQueue> queue;
    std::unique_ptr<cluster::ReplicatorScanner> scanner;
    if (scan_mode) {
        queue = std::make_unique<cluster::RepairQueue>(
            stripes, config.scanner.queue);
        scanner = std::make_unique<cluster::ReplicatorScanner>(
            stripes, *queue, sim, config.scanner);
    }

    std::unique_ptr<traffic::ForegroundDriver> foreground;
    if (config.trace) {
        foreground = std::make_unique<traffic::ForegroundDriver>(
            cluster, *config.trace, rng.split(),
            config.requestsPerClient);
        foreground->start();
    }

    auto dimension = algorithm == Algorithm::kChameleonIo
                         ? repair::BandwidthMonitor::Dimension::kStorage
                         : repair::BandwidthMonitor::Dimension::kNetwork;
    repair::BandwidthMonitor monitor(cluster, 5.0, dimension);
    monitor.start();

    repair::RepairExecutor executor(cluster, config.exec);

    // Warm the cluster up so the monitor has real estimates.
    sim.run(config.warmup);

    // Inject the failure(s). The scanner path defers chunk-loss
    // discovery: the crash itself is O(1) and the background sweep
    // finds the losses in bounded batches.
    std::vector<cluster::FailedChunk> pending;
    for (NodeId n = 0; n < config.failedNodes; ++n) {
        if (scan_mode) {
            stripes.failNodeDeferred(n);
        } else {
            auto lost = stripes.failNode(n);
            pending.insert(pending.end(), lost.begin(), lost.end());
        }
        cluster.markNodeDown(n);
        if (foreground)
            foreground->excludeNode(n);
    }
    const std::size_t lat_start =
        foreground ? foreground->latencies().count() : 0;
    const SimTime repair_start = sim.now();

    // Snapshot per-link byte counters for the load analysis.
    auto &net = cluster.network();
    net.sync();
    const int nodes = config.cluster.numNodes;
    std::vector<Bytes> up_fg0(nodes), up_rp0(nodes), down_fg0(nodes),
        down_rp0(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        up_fg0[n] = net.taggedBytes(cluster.uplink(n),
                                    sim::FlowTag::kForeground);
        up_rp0[n] = net.taggedBytes(cluster.uplink(n),
                                    sim::FlowTag::kRepair);
        down_fg0[n] = net.taggedBytes(cluster.downlink(n),
                                      sim::FlowTag::kForeground);
        down_rp0[n] = net.taggedBytes(cluster.downlink(n),
                                      sim::FlowTag::kRepair);
    }

    // Schedule straggler throttles relative to the failure time.
    for (auto ev : config.stragglers) {
        if (ev.node == kInvalidNode) {
            CHAMELEON_ASSERT(!pending.empty(), "no repair to straggle");
            auto avail = stripes.availableChunks(pending[0].stripe);
            CHAMELEON_ASSERT(!avail.empty(), "stripe has no survivors");
            ev.node = stripes.location(pending[0].stripe, avail[0]);
        }
        sim.schedule(repair_start + ev.at, [&net, &cluster, ev] {
            if (ev.uplink) {
                auto id = cluster.uplink(ev.node);
                net.setCapacity(id, net.capacity(id) * ev.factor);
            }
            if (ev.downlink) {
                auto id = cluster.downlink(ev.node);
                net.setCapacity(id, net.capacity(id) * ev.factor);
            }
        });
        sim.schedule(repair_start + ev.at + ev.duration,
                     [&net, &cluster, ev] {
                         if (ev.uplink) {
                             auto id = cluster.uplink(ev.node);
                             net.setCapacity(id, net.capacity(id) /
                                                     ev.factor);
                         }
                         if (ev.downlink) {
                             auto id = cluster.downlink(ev.node);
                             net.setCapacity(id, net.capacity(id) /
                                                     ev.factor);
                         }
                     });
    }

    // Integrity scrubbing: the scanner is built before the repair
    // layer so the outcome hooks below can chain into it; detection
    // routing is installed after the repair layer exists.
    std::unique_ptr<cluster::ScrubScanner> scrub;
    if (config.scrub.enabled && algorithm != Algorithm::kNone)
        scrub = std::make_unique<cluster::ScrubScanner>(
            cluster, stripes, config.exec.chunkSize, config.scrub);

    // Launch the repair machinery: one driver per algorithm family.
    // The family-specific results are read through the typed
    // pointers kept here.
    std::unique_ptr<repair::RepairDriver> driver;
    repair::ChameleonScheduler *scheduler = nullptr;
    traffic::HedgedReadManager *hedged = nullptr;
    std::unique_ptr<repair::RepairBoostSelector> rb;
    if (algorithm == Algorithm::kNone) {
        // trace-only run
    } else if (config.degraded.enabled) {
        // Consume the plan-rng split the session branch would have,
        // so the fault injector's stream stays aligned with a
        // same-seed session run.
        (void)rng.split();
        auto manager = std::make_unique<traffic::HedgedReadManager>(
            stripes, executor, monitor, config.degraded, config.retry);
        hedged = manager.get();
        driver = std::move(manager);
    } else if (isChameleonFamily(algorithm)) {
        repair::ChameleonConfig ccfg = config.chameleon;
        if (algorithm == Algorithm::kEtrp) {
            ccfg.enableReordering = false;
            ccfg.enableRetuning = false;
        }
        auto coordinator = std::make_unique<repair::ChameleonScheduler>(
            stripes, executor, monitor, ccfg, rng.split(), config.retry);
        scheduler = coordinator.get();
        driver = std::move(coordinator);
    } else {
        repair::Topology topo = topologyOf(algorithm);
        Rng plan_rng = rng.split();
        repair::RepairSession::PlanFn plan_fn;
        if (isRepairBoost(algorithm)) {
            rb = std::make_unique<repair::RepairBoostSelector>(nodes);
            plan_fn = [&stripes, topo, plan_rng, &rb](
                          const cluster::FailedChunk &fc,
                          const std::vector<NodeId> &reserved) mutable {
                return rb->makePlan(stripes, fc, topo, reserved,
                                    plan_rng);
            };
        } else {
            plan_fn = [&stripes, topo, plan_rng](
                          const cluster::FailedChunk &fc,
                          const std::vector<NodeId> &reserved) mutable {
                return repair::makeBaselinePlan(stripes, fc, topo,
                                                reserved, plan_rng);
            };
        }
        driver = std::make_unique<repair::RepairSession>(
            stripes, executor, std::move(plan_fn), config.session,
            config.topology, config.retry);
    }

    if (driver && scan_mode) {
        scanner->setDispatch(
            [r = driver.get()](std::vector<cluster::FailedChunk> chunks) {
                r->enqueue(chunks);
            });
        driver->setOutcomeHook(
            [sc = scanner.get(), sb = scrub.get()](
                const cluster::FailedChunk &fc, bool ok) {
                sc->onChunkOutcome(fc, ok);
                if (sb)
                    sb->noteOutcome(fc, ok);
            });
        // One synchronous sweep at the exact point the eager path
        // hands over its work list keeps small-scale scanner runs
        // byte-identical to eager runs.
        scanner->primeSync();
        scanner->start();
    } else if (driver) {
        if (scrub)
            driver->setOutcomeHook(
                [sb = scrub.get()](const cluster::FailedChunk &fc,
                                   bool ok) { sb->noteOutcome(fc, ok); });
        driver->enqueue(pending);
    }

    if (scrub) {
        // Detected corruptions enter repair through the same door as
        // discovered losses: the prioritized queue on the scanner
        // path, the driver's feed otherwise. Deferred — detection can
        // fire from the executor's verify hooks inside flow
        // dispatch, where launching repairs must not re-enter.
        scrub->setOnDetected([&sim, &queue, &scanner, &driver,
                              scan_mode](cluster::FailedChunk fc,
                                         cluster::RepairTier tier) {
            sim.scheduleAfter(0.0, [&, fc, tier] {
                if (scan_mode) {
                    queue->push(fc, tier);
                    scanner->pumpAdmission();
                } else {
                    driver->enqueue({fc});
                }
            });
        });
        // Executor integrity hooks. The simulator carries no real
        // payloads, so "run the checksum kernel" consults the
        // injector's ground-truth corrupt bit — exactly what a
        // checksum mismatch would report (see ec/checksum.hh for the
        // kernel itself; the integrity tests exercise it on bytes).
        repair::RepairExecutor::IntegrityHooks ih;
        if (config.scrub.verifyReads) {
            ih.verifySource = [&stripes, sb = scrub.get()](
                                  StripeId s, ChunkIndex c,
                                  NodeId) {
                if (!stripes.chunkCorrupt(s, c))
                    return true;
                sb->detect({s, c},
                           cluster::DetectSource::kVerifyRead);
                return false;
            };
        }
        ih.verifyDecoded =
            [&stripes, &sim, sb = scrub.get(),
             verify = config.scrub.verifyDecode](
                const repair::ChunkRepairPlan &plan) -> NodeId {
            for (const auto &src : plan.sources) {
                if (!stripes.chunkCorrupt(plan.stripe, src.chunk))
                    continue;
                if (verify) {
                    sb->detect({plan.stripe, src.chunk},
                               cluster::DetectSource::kVerifyDecode);
                    return src.node;
                }
                // Verification off: the corrupt helper's garbage is
                // folded into the reconstruction. Re-mark after the
                // driver's markRepaired clears the bit, so the
                // propagated corruption stays scrubbable.
                telemetry::metrics()
                    .counter("integrity.corruptions_propagated")
                    .add();
                sim.scheduleAfter(0.0, [&stripes, plan] {
                    if (!stripes.chunkLost(plan.stripe,
                                           plan.failedChunk))
                        stripes.markCorrupt(plan.stripe,
                                            plan.failedChunk);
                });
                return kInvalidNode;
            }
            return kInvalidNode;
        };
        executor.setIntegrityHooks(std::move(ih));
        scrub->start();
    }

    // Arm mid-repair faults (explicit schedule + generated chaos)
    // once the repair layer is live, so crash hooks have somewhere
    // to deliver the newly lost chunks.
    std::unique_ptr<fault::FaultInjector> injector;
    {
        fault::FaultSchedule schedule = config.faults;
        if (config.chaosRate > 0 || config.bitrotRate > 0) {
            auto chaos = fault::ChaosConfig::fromRate(
                config.chaosRate, config.chaosHorizon);
            chaos.bitrotRate = config.bitrotRate;
            uint64_t chaos_seed = config.chaosSeed != 0
                                      ? config.chaosSeed
                                      : config.seed ^ 0x9e3779b97f4a7c15ull;
            auto generated = fault::generateChaos(chaos, nodes,
                                                  chaos_seed);
            schedule.events.insert(schedule.events.end(),
                                   generated.events.begin(),
                                   generated.events.end());
            std::stable_sort(schedule.events.begin(),
                             schedule.events.end(),
                             [](const fault::FaultEvent &a,
                                const fault::FaultEvent &b) {
                                 return a.at < b.at;
                             });
        }
        if (!schedule.empty()) {
            fault::InjectorHooks fault_hooks;
            fault_hooks.onCrash =
                [&](NodeId node,
                    const std::vector<cluster::FailedChunk> &lost) {
                    if (foreground)
                        foreground->excludeNode(node);
                    if (driver)
                        driver->onNodeCrash(node, lost);
                    if (scanner)
                        scanner->noteCrash(node);
                };
            fault_hooks.onRejoin = [&](NodeId node) {
                if (foreground)
                    foreground->includeNode(node);
                if (scanner)
                    scanner->noteRejoin(node);
            };
            fault_hooks.onBlackoutStart = [&] { monitor.stop(); };
            fault_hooks.onBlackoutEnd = [&] { monitor.start(); };
            // Start the detection-latency clock. Without a scrub
            // scanner the corruption simply stays silent — that is
            // the point of the no-scrub baseline.
            fault_hooks.onBitRot = [&](cluster::FailedChunk fc,
                                       NodeId) {
                if (scrub)
                    scrub->noteCorruption(fc);
            };
            injector = std::make_unique<fault::FaultInjector>(
                cluster, stripes, std::move(fault_hooks));
            if (scan_mode)
                injector->setDeferredDiscovery(true);
            injector->arm(schedule, rng.split());
        }
    }

    auto repair_done = [&] {
        if (!driver)
            return true;
        const bool done = driver->finished();
        // With scrubbing on, the repair layer idling is not enough
        // either: every injected corruption must have been surfaced
        // and re-repaired (bounded by one scrub epoch), or claimed
        // by a real loss first.
        if (scrub && !scrub->quiescent())
            return false;
        if (!scan_mode)
            return done;
        // Scanner path: the repair layer idling is not enough — the
        // scanner must have swept past every crash (no undiscovered
        // losses) and the queue must have drained.
        return done && scanner->discoveryComplete() && queue->idle();
    };
    auto trace_done = [&] {
        if (!foreground || config.requestsPerClient == 0)
            return true;
        return foreground->finished();
    };

    ExperimentResult result;
    result.algorithm = algorithm;
    SimTime repair_finish = repair_start;
    bool repair_seen_done = !driver;
    auto uplink_repair_bytes = [&] {
        net.sync();
        Bytes acc = 0;
        for (NodeId n = 0; n < nodes; ++n)
            acc += net.taggedBytes(cluster.uplink(n),
                                   sim::FlowTag::kRepair);
        return acc;
    };
    Bytes traffic_before = uplink_repair_bytes();
    while ((!repair_done() || !trace_done()) &&
           sim.now() < config.simTimeCap) {
        Bytes before = executor.repairedBytes();
        sim.run(sim.now() + result.timelinePeriod);
        result.throughputTimeline.push_back(
            (executor.repairedBytes() - before) /
            result.timelinePeriod);
        Bytes traffic_now = uplink_repair_bytes();
        result.trafficTimeline.push_back(
            (traffic_now - traffic_before) / result.timelinePeriod);
        traffic_before = traffic_now;
        if (!repair_seen_done && repair_done()) {
            repair_seen_done = true;
            repair_finish = driver->finishTime();
        }
        if (hooks.onSample)
            hooks.onSample(sim.now(), foreground.get());
    }
    if (!repair_done()) {
        CHAMELEON_WARN("experiment hit the simulated-time cap (",
                       algorithmName(algorithm), ")");
    }
    if (driver && repair_done() && !repair_seen_done)
        repair_finish = driver->finishTime();

    // Capture end-of-window byte counters before draining.
    net.sync();
    std::vector<Bytes> up_fg1(nodes), up_rp1(nodes), down_fg1(nodes),
        down_rp1(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        up_fg1[n] = net.taggedBytes(cluster.uplink(n),
                                    sim::FlowTag::kForeground);
        up_rp1[n] = net.taggedBytes(cluster.uplink(n),
                                    sim::FlowTag::kRepair);
        down_fg1[n] = net.taggedBytes(cluster.downlink(n),
                                      sim::FlowTag::kForeground);
        down_rp1[n] = net.taggedBytes(cluster.downlink(n),
                                      sim::FlowTag::kRepair);
    }

    // Wind everything down. Disarming first keeps not-yet-fired
    // faults out of the drain window.
    if (injector)
        injector->disarm();
    if (scrub)
        scrub->stop();
    if (scanner)
        scanner->stop();
    if (foreground)
        foreground->stop();
    monitor.stop();
    sim.run(sim.now() + 200.0);

    // ---- Metrics.
    if (driver && repair_done()) {
        result.chunksRepaired = driver->chunksRepaired();
        result.chunksUnrecoverable = driver->chunksUnrecoverable();
        result.crashReplans = driver->crashReplans();
        result.repairTime = repair_finish - repair_start;
        if (result.chunksRepaired > 0) {
            CHAMELEON_ASSERT(result.repairTime > 0,
                             "empty repair window");
            result.repairThroughput =
                static_cast<double>(result.chunksRepaired) *
                config.exec.chunkSize / result.repairTime;
        }
        if (scheduler) {
            result.phases = scheduler->phasesRun();
            result.retunes = scheduler->retunes();
            result.reorders = scheduler->reorders();
        }
        if (hedged) {
            result.hedgesIssued = hedged->hedgesIssued();
            result.hedgeWins = hedged->hedgeWins();
            result.degradedLatency = hedged->latencies().summary();
        }
    }
    result.chunksLostAtEnd =
        static_cast<int>(stripes.lostChunks().size());
    if (injector)
        result.faultsInjected = injector->faultsInjected();
    if (scrub) {
        result.corruptionsInjected =
            static_cast<int>(scrub->corruptionsSeen());
        result.corruptionsDetected =
            static_cast<int>(scrub->corruptionsDetected());
        result.corruptionsRepaired =
            static_cast<int>(scrub->corruptionsRepaired());
        result.scrubEpochs = static_cast<int>(scrub->epoch());
        result.scrubBytes = scrub->scrubBytes();
        result.meanDetectionLatency = scrub->meanDetectionLatency();
        result.maxDetectionLatency = scrub->maxDetectionLatency();
    }
    if (foreground) {
        const auto &lat = foreground->latencies();
        // Latency over the repair window (or the whole loaded run
        // for trace-only cells).
        std::size_t from = lat_start;
        if (algorithm == Algorithm::kNone)
            from = 0;
        result.latency = lat.summaryFrom(from);
        result.p99LatencyMs = result.latency.p99 * 1e3;
        result.meanLatencyMs = result.latency.mean * 1e3;
        if (config.requestsPerClient != 0 && foreground->finished())
            result.traceTime = foreground->completionTime();
    }
    const SimTime window_end =
        (driver && repair_done())
            ? repair_finish
            : sim.now();
    const SimTime span = std::max(window_end - repair_start, 1e-9);
    for (NodeId n = 0; n < nodes; ++n) {
        LinkLoad up;
        up.node = n;
        up.foregroundMean = (up_fg1[n] - up_fg0[n]) / span;
        up.repairMean = (up_rp1[n] - up_rp0[n]) / span;
        up.foregroundFluctuation =
            net.usage(cluster.uplink(n), sim::FlowTag::kForeground)
                .fluctuationBetween(repair_start, window_end);
        result.uplinks.push_back(up);

        LinkLoad down;
        down.node = n;
        down.foregroundMean = (down_fg1[n] - down_fg0[n]) / span;
        down.repairMean = (down_rp1[n] - down_rp0[n]) / span;
        down.foregroundFluctuation =
            net.usage(cluster.downlink(n), sim::FlowTag::kForeground)
                .fluctuationBetween(repair_start, window_end);
        result.downlinks.push_back(down);
    }
    // Simulator-core load of the run, alongside the solver counters
    // (sim.rate_recomputes, sim.rate_recompute_flow_visits,
    // sim.solver.dirty_resource_visits) the FlowNetwork maintains.
    telemetry::metrics()
        .gauge("sim.events_executed")
        .set(static_cast<double>(sim.eventsExecuted()));
    return result;
}

} // namespace runtime
} // namespace chameleon
