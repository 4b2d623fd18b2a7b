/**
 * @file
 * Fault injection: typed mid-run fault events (node crash, slow
 * disk, link degradation, monitor blackout, delayed rejoin) driven
 * through the simulator event queue.
 *
 * The paper's whole premise is that repair runs while the cluster
 * keeps changing under it; the experiment harness previously only
 * failed nodes *before* repair started. A FaultSchedule is an
 * explicit list of events (parsed from a CLI spec or built in
 * tests); generateChaos() samples one from Poisson arrival rates so
 * a single seed reproduces an entire churn run. The FaultInjector
 * applies events against the cluster/stripe state and notifies the
 * repair layer through hooks, keeping a deterministic log of what it
 * did for regression tests.
 */

#ifndef CHAMELEON_FAULT_FAULT_HH_
#define CHAMELEON_FAULT_FAULT_HH_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/stripe_table.hh"
#include "sim/simulator.hh"
#include "telemetry/metrics.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace chameleon {
namespace fault {

/** Kinds of injectable faults. */
enum class FaultKind {
    /** Node dies: its chunks are lost, flows touching it must be
     * aborted. duration > 0 schedules a rejoin (the node returns
     * empty — its chunk data is gone, matching a disk wipe). */
    kNodeCrash,
    /** Disk bandwidth drops to capacity * factor for duration. */
    kSlowDisk,
    /** Uplink+downlink drop to capacity * factor for duration.
     * Several short events make a flapping link. */
    kLinkDegrade,
    /** The bandwidth monitor stops sampling for duration; repair
     * dispatch runs on frozen (stale) estimates meanwhile. */
    kMonitorBlackout,
    /** Silent bit rot: payload bytes of one live chunk on the node
     * flip with no externally visible failure. Only a scrub read or
     * a checksum verify-on-read can surface it. */
    kBitRot,
};

const char *faultKindName(FaultKind kind);

/** One scheduled fault. */
struct FaultEvent
{
    /** Seconds after arm(). */
    SimTime at = 0.0;
    FaultKind kind = FaultKind::kNodeCrash;
    /** Target node; kInvalidNode lets the injector pick a live one
     * (ignored for blackouts). */
    NodeId node = kInvalidNode;
    /** Remaining capacity fraction (slow-disk / link-degrade). */
    double factor = 0.1;
    /** Fault duration; 0 = permanent (a crash never rejoins, a
     * throttle never lifts, a blackout never ends). */
    SimTime duration = 0.0;

    bool operator==(const FaultEvent &) const = default;
};

/**
 * An ordered list of fault events.
 *
 * Spec grammar (semicolon-separated events):
 *   kind@T[:node=N][:factor=F][:dur=D]
 * with kind one of crash|slowdisk|linkdeg|blackout|bitrot, e.g.
 *   "crash@30:node=3:dur=40;linkdeg@10:factor=0.2:dur=15"
 */
struct FaultSchedule
{
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /** Parses the spec grammar above; panics on malformed input. */
    static FaultSchedule parse(const std::string &spec);

    /**
     * Non-panicking parse for untrusted input (scenario files).
     * @param error receives a description on failure when non-null.
     * @return nullopt on malformed input.
     */
    static std::optional<FaultSchedule>
    tryParse(const std::string &spec, std::string *error = nullptr);

    /** Round-trips back to the spec grammar. */
    std::string str() const;

    bool operator==(const FaultSchedule &) const = default;
};

/** Rates and shapes for chaos schedule generation. */
struct ChaosConfig
{
    /** Poisson arrival rates, events per second of horizon. */
    double crashRate = 0.0;
    double slowDiskRate = 0.0;
    double linkRate = 0.0;
    double blackoutRate = 0.0;
    /** Silent bit-rot arrivals; kept out of fromRate()'s split so
     * integrity chaos is opt-in (pre-scrub schedules reproduce
     * bit-identically when this stays 0). */
    double bitrotRate = 0.0;
    /** Generation window (events arrive in [0, horizon)). */
    SimTime horizon = 120.0;
    /** Mean crash downtime before rejoin; 0 = permanent crashes. */
    SimTime meanCrashDowntime = 30.0;
    /** Mean throttle/blackout duration. */
    SimTime meanThrottle = 10.0;
    /** Throttle factors are uniform in [minFactor, maxFactor]. */
    double minFactor = 0.05;
    double maxFactor = 0.5;

    /**
     * Convenience: a combined rate split across kinds the way real
     * clusters misbehave (mostly link trouble and slow disks, the
     * occasional crash or monitoring gap).
     */
    static ChaosConfig fromRate(double events_per_second,
                                SimTime horizon = 120.0);
};

/** Samples a schedule; same (config, nodes, seed) -> same result. */
FaultSchedule generateChaos(const ChaosConfig &config, int num_nodes,
                            uint64_t seed);

/** Callbacks into the repair layer; any may be null. */
struct InjectorHooks
{
    /** After failNode/markNodeDown: the repair layer must abort
     * flows touching `node` and absorb `lost` into its queue. */
    std::function<void(NodeId,
                       const std::vector<cluster::FailedChunk> &)>
        onCrash;
    /** After rejoinNode/markNodeUp. */
    std::function<void(NodeId)> onRejoin;
    std::function<void()> onBlackoutStart;
    std::function<void()> onBlackoutEnd;
    /** After markCorrupt: a live chunk on `node` silently rotted.
     * Integrity bookkeeping only (detection-latency clocks) — a
     * repair layer reacting here would be cheating. */
    std::function<void(cluster::FailedChunk, NodeId)> onBitRot;
};

/** Log entry: one applied (or skipped) fault. */
struct InjectedFault
{
    SimTime at = 0.0;
    FaultKind kind = FaultKind::kNodeCrash;
    NodeId node = kInvalidNode;
    double factor = 1.0;
    SimTime duration = 0.0;
    /** False when the injector skipped the event (e.g. a crash that
     * would leave fewer live nodes than minLiveNodes). */
    bool applied = false;

    bool operator==(const InjectedFault &) const = default;
};

/** Applies a FaultSchedule against a live cluster; see file comment. */
class FaultInjector
{
  public:
    FaultInjector(cluster::Cluster &cluster,
                  cluster::StripeTable &stripes,
                  InjectorHooks hooks = {});

    /**
     * Crashes that would leave fewer than `n` live nodes are skipped
     * (logged with applied=false). Defaults to the stripe code's n,
     * below which new stripes could not even be placed.
     */
    void setMinLiveNodes(int n);

    /**
     * Schedules every event relative to the current simulation time.
     * Auto-picked crash/throttle targets draw from `rng`, so one
     * seed fixes the whole run. May be called once.
     */
    void arm(const FaultSchedule &schedule, Rng rng);

    /** Cancels all not-yet-fired events (rejoins/restores included). */
    void disarm();

    /** Deterministic record of everything injected, in fire order. */
    const std::vector<InjectedFault> &log() const { return log_; }

    /** Count of events applied (skipped ones excluded). */
    int faultsInjected() const { return applied_; }

    /** Nodes currently up (not crashed, initial failures included). */
    int liveNodes() const;

    /**
     * Scanner-path crashes: failNodeDeferred() instead of the eager
     * full-table failNode(), so a crash at 10^6 stripes stays O(1)
     * inside the event. onCrash hooks then receive an *empty*
     * newly-lost list — the background scanner discovers and
     * enqueues the losses in bounded batches.
     */
    void setDeferredDiscovery(bool on) { deferred_ = on; }

  private:
    void apply(FaultEvent ev);
    void applyCrash(FaultEvent ev);
    void applyThrottle(const FaultEvent &ev);
    void applyBlackout(const FaultEvent &ev);
    void applyBitRot(FaultEvent ev);
    /** Uniformly picks a live node, or kInvalidNode if none. */
    NodeId pickLiveNode();
    void record(const FaultEvent &ev, bool applied);

    cluster::Cluster &cluster_;
    cluster::StripeTable &stripes_;
    InjectorHooks hooks_;
    Rng rng_{0};
    int minLiveNodes_;
    bool armed_ = false;
    bool deferred_ = false;
    std::vector<sim::EventHandle> pendingEvents_;
    std::vector<InjectedFault> log_;
    int applied_ = 0;
    telemetry::Counter &metCrashes_;
    telemetry::Counter &metRejoins_;
    telemetry::Counter &metThrottles_;
    telemetry::Counter &metBlackouts_;
    telemetry::Counter &metBitrots_;
    telemetry::Counter &metSkipped_;
};

} // namespace fault
} // namespace chameleon

#endif // CHAMELEON_FAULT_FAULT_HH_
