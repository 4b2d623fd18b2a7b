/**
 * @file
 * Fluid-flow network model with max-min fair bandwidth sharing.
 *
 * This is the stand-in for the paper's EC2 testbed. Every node link
 * (uplink, downlink) and disk is a Resource with a capacity in
 * bytes/second; every transfer (a foreground request, a repair slice,
 * a chunk hop) is a Flow traversing an ordered set of resources. At
 * any instant, flow rates are the max-min fair allocation (progressive
 * filling), the standard fluid abstraction of TCP sharing on
 * datacenter links. Rates are piecewise constant between events.
 *
 * Rate maintenance is incremental (see DESIGN.md §5g): a flow start,
 * finish, cancel, or capacity change re-solves only the connected
 * component of resources reachable from the changed resources through
 * shared flows — the only region whose bottleneck structure can
 * change — while every other flow keeps its rate bit-for-bit. That
 * component is usually the one the previous re-solve found, so the
 * solver patches the previous dirty set when the changed resources
 * lie in its one component, and runs a BFS only otherwise. Flow
 * progress is integrated lazily per flow (each flow remembers the
 * last instant it was integrated and its rate is constant since), and
 * completions come from an intrusive min-heap of predicted completion
 * times instead of an all-flows scan. Setting the environment
 * variable CHAMELEON_SIM_REFERENCE_SOLVER=1 (or calling
 * setReferenceSolver(true)) forces the from-scratch global solve on
 * every event as a differential oracle; both modes produce
 * byte-identical rates, event orders, and experiment output.
 *
 * Per-resource, per-tag byte accounting feeds the paper's
 * measurements: foreground-bandwidth fluctuation (Fig. 5), most/least
 * loaded links (Fig. 6), and the residual-bandwidth estimates
 * ChameleonEC's dispatcher consumes.
 */

#ifndef CHAMELEON_SIM_FLOW_NETWORK_HH_
#define CHAMELEON_SIM_FLOW_NETWORK_HH_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hh"
#include "telemetry/metrics.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace chameleon {
namespace sim {

/** Identifier of a capacity-constrained resource. */
using ResourceId = int32_t;

/** Identifier of an active or completed flow. */
using FlowId = int64_t;

inline constexpr ResourceId kInvalidResource = -1;
inline constexpr FlowId kInvalidFlow = -1;

/** Classification used for accounting and monitoring. */
enum class FlowTag : int {
    kForeground = 0,
    kRepair = 1,
    /** Background integrity scrub reads (cluster::ScrubScanner). */
    kScrub = 2,
};

inline constexpr int kNumFlowTags = 3;

/**
 * Optional provenance attached to a flow for telemetry: which repair
 * (group), which DAG vertex produced the payload, and which slice
 * index it carries. Unset fields stay -1 and are omitted from the
 * trace span, so unlabeled flows trace exactly as before.
 */
struct FlowLabel
{
    int64_t group = -1;
    int32_t vertex = -1;
    int32_t slice = -1;

    bool empty() const
    {
        return group < 0 && vertex < 0 && slice < 0;
    }
};

/** Max-min fair fluid network; see file comment. */
class FlowNetwork
{
  public:
    /** Flow-completion callback; small captures stay inline. */
    using Callback = Simulator::Callback;

    /**
     * @param sim           the owning event loop.
     * @param usage_window  window for per-resource bandwidth
     *                      accounting (the paper uses 15 s windows).
     */
    explicit FlowNetwork(Simulator &sim, SimTime usage_window = 15.0);

    /** Registers a resource; capacity in bytes/second. */
    ResourceId addResource(std::string name, Rate capacity);

    std::size_t resourceCount() const { return resources_.size(); }
    const std::string &resourceName(ResourceId id) const;
    Rate capacity(ResourceId id) const;

    /** Changes capacity (straggler/throttle injection); re-solves
     * the affected component. */
    void setCapacity(ResourceId id, Rate capacity);

    /**
     * Starts a flow of `size` bytes across `path` (resources are
     * traversed conceptually in order but share rate simultaneously,
     * as in a cut-through fluid model).
     *
     * @param on_complete  invoked (once) when the last byte arrives.
     * @return the flow id (valid until completion/cancellation).
     */
    FlowId startFlow(std::vector<ResourceId> path, Bytes size,
                     FlowTag tag, Callback on_complete);

    /** As above, tagging the flow's trace span with `label` (the
     * slice-pipelined DAG executor labels every slice hop). */
    FlowId startFlow(std::vector<ResourceId> path, Bytes size,
                     FlowTag tag, const FlowLabel &label,
                     Callback on_complete);

    /**
     * Cancels an active flow. Cancelling an id that is not active
     * (already completed or never started) is a cheap no-op.
     * @return bytes that had not yet been transferred.
     */
    Bytes cancelFlow(FlowId id);

    bool flowActive(FlowId id) const;

    /** Remaining bytes of an active flow, exact at the current
     * instant (the flow is lazily integrated on read). */
    Bytes flowRemaining(FlowId id) const;

    /** Current allocated rate of an active flow (bytes/s). */
    Rate flowRate(FlowId id) const;

    /** Number of currently active flows. */
    std::size_t activeFlowCount() const { return flows_.size(); }

    /**
     * Integrates all flow progress up to the current simulator time.
     *
     * Per-flow progress is integrated lazily (only when a flow's
     * rate changes), so queries of per-resource byte counters made
     * from an unrelated event (e.g. a monitor tick) should call
     * sync() first to observe exact byte counts.
     */
    void sync();

    /** Cumulative bytes moved through `id` by flows tagged `tag`. */
    Bytes taggedBytes(ResourceId id, FlowTag tag) const;

    /** Windowed usage recorder for (resource, tag). */
    const WindowedUsage &usage(ResourceId id, FlowTag tag) const;

    /** Instantaneous aggregate rate of `tag` flows through `id`;
     * O(1): each solve re-sums, from the active list, the resources
     * whose flows or rates it changed. */
    Rate currentTagRate(ResourceId id, FlowTag tag) const;

    /** Count of active flows through `id`. */
    std::size_t activeFlowsOn(ResourceId id) const;

    /**
     * Forces the from-scratch global max-min solve on every event
     * (the debug oracle the incremental solver is differentially
     * tested against). Also enabled by the environment variable
     * CHAMELEON_SIM_REFERENCE_SOLVER=1 at construction.
     */
    void setReferenceSolver(bool on) { referenceSolver_ = on; }
    bool referenceSolver() const { return referenceSolver_; }

  private:
    struct Flow
    {
        FlowId id;
        std::vector<ResourceId> path;
        Bytes remaining;
        Rate rate = 0.0;
        FlowTag tag;
        /** Position in dirtyFlows_ while the flow is in the kept
         * dirty set (fills the padding after tag). */
        uint32_t dirtyPos = 0;
        Callback onComplete;
        /** Telemetry: launch time and original size for flow spans. */
        SimTime start = 0.0;
        Bytes size = 0.0;
        /** Optional per-slice provenance for the trace span. */
        FlowLabel label;
        /** Progress is integrated up to here; the rate has been
         * constant since (lazy integration). */
        SimTime syncTime = 0.0;
        /** Rate before the current solve (scratch). */
        Rate prevRate = 0.0;
        /** Predicted completion instant (completion-heap key);
         * kTimeNever while stalled. */
        SimTime eta = kTimeNever;
        /** Position in the completion heap; -1 = not enqueued. */
        int32_t heapPos = -1;
        /** Position in the id-ordered live list. */
        uint32_t livePos = 0;
        /** Dirty-set traversal epoch (solve-internal). */
        uint64_t mark = 0;
    };

    struct Resource
    {
        std::string name;
        Rate capacity;
        /** Flows currently crossing this resource. Pointers into
         * flows_ (stable: unordered_map never moves nodes), so the
         * progressive-filling loop walks flows directly instead of
         * hashing ids per visit. */
        std::vector<Flow *> active;
        Bytes taggedBytes[kNumFlowTags] = {0.0, 0.0, 0.0};
        WindowedUsage usage[kNumFlowTags];
        /** Per-tag sums of the active flows' rates, re-summed from
         * the active list by every solve that changes a member or a
         * member's rate, so FP dust never accumulates on idle
         * links. */
        Rate tagRate[kNumFlowTags] = {0.0, 0.0, 0.0};
        /** Dirty-set traversal epoch (solve-internal). */
        uint64_t mark = 0;
        /** Epoch of the last solve that changed this resource's
         * members or their rates (solve-internal). */
        uint64_t tagMark = 0;
        /** Progressive-filling scratch (solve-internal): residual
         * capacity, unfrozen flow count, and index in the ordered
         * dirty set (and so in fair_; it stays valid for the kept
         * set until the next solve). */
        Rate residual = 0.0;
        std::size_t unfrozen = 0;
        std::size_t pos = 0;

        /** The share each unfrozen flow gets if this resource is the
         * bottleneck; +inf once none is unfrozen, so it is never
         * picked. */
        Rate fairShare() const
        {
            return unfrozen == 0
                       ? std::numeric_limits<Rate>::infinity()
                       : std::max(residual, 0.0) /
                             static_cast<Rate>(unfrozen);
        }

        Resource(std::string n, Rate c, SimTime window)
            : name(std::move(n)), capacity(c),
              usage{WindowedUsage(window), WindowedUsage(window),
                    WindowedUsage(window)}
        {
        }
    };

    /**
     * Integrates one flow's progress over [flow.syncTime, now] at
     * `rate` (its rate over that interval) and advances syncTime.
     * @return the instant the last integrated byte arrived (used as
     *         the exact completion time for trace spans).
     */
    SimTime integrateFlow(Flow &flow, SimTime now, Rate rate);

    /**
     * Re-solves the max-min allocation of the connected component(s)
     * reachable from `seeds`, lazily integrating and re-keying every
     * flow whose rate actually changed, then reschedules the next
     * completion and dispatches staged callbacks. `started` is the
     * flow whose start caused the solve, if any. The dirty set is
     * patched from the previous solve's when every seed lies in its
     * one component (patchDirtySets), and found by a BFS over the
     * flow<->resource graph otherwise: when the previous set is not
     * one component, a seed lies outside it, or a start joins none
     * of its flows. In reference-solver mode the dirty set is the
     * whole network.
     */
    void resolve(const std::vector<ResourceId> &seeds,
                 Flow *started = nullptr);

    /** Whether `res` is in the kept dirty set (dirtyRes_). */
    bool inDirtySet(const Resource &res) const
    {
        return res.pos < dirtyRes_.size() && dirtyRes_[res.pos] == &res;
    }

    /**
     * Turns the kept dirty set into the union of the components that
     * contain `seeds`, in order, when the kept set's busy resources
     * form one component and every seed lies in it; otherwise leaves
     * it alone. A patched set may still hold members left idle and
     * null flow entries, which resolve's init walks drop; a removal's
     * seeds are marked with `epoch` so that they stay.
     * @return whether the set was patched.
     */
    bool patchDirtySets(const std::vector<ResourceId> &seeds,
                        Flow *started, uint64_t epoch);

    /** Whether the busy seeds of a patched removal, listed in
     * patchRes_, are still connected. */
    bool busySeedsConnected();

    /** Puts the BFS-found dirty sets (marked with `epoch`) in the
     * order the fill and apply passes need: resources by index,
     * flows by id. */
    void orderDirtySets(uint64_t epoch);

    /** Stages the completion of a finished flow: callback, counters,
     * trace span, detach, erase. `flow` is dead afterwards. */
    void completeFlow(Flow &flow, SimTime end);

    /** Removes the flow from its resources' active lists, from the
     * live list, and from the completion heap. */
    void detachFlow(Flow &flow);

    void scheduleNextCompletion();
    void onCompletionEvent();
    void dispatchPending();

    /** Completion-heap primitives (binary heap ordered by (eta, id),
     * positions tracked intrusively in Flow::heapPos). */
    bool heapLess(const Flow *a, const Flow *b) const
    {
        if (a->eta != b->eta)
            return a->eta < b->eta;
        return a->id < b->id;
    }
    void heapSiftUp(std::size_t i);
    void heapSiftDown(std::size_t i);
    void heapUpdate(Flow *flow);
    void heapRemove(Flow *flow);

    /** Emits the Chrome-trace span of a finished/cancelled flow. */
    void traceFlowSpan(const Flow &flow, SimTime end, bool cancelled);

    Simulator &sim_;
    SimTime usageWindow_;
    /** Metric handles (resolved once; updates are single adds). */
    telemetry::Counter &flowsStarted_;
    telemetry::Counter &flowsCompleted_;
    telemetry::Counter &flowsCancelled_;
    telemetry::Gauge &flowsActive_;
    telemetry::Counter &rateRecomputes_;
    telemetry::Counter &rateRecomputeVisits_;
    telemetry::Counter &dirtyResourceVisits_;
    telemetry::Counter &capacityChanges_;
    std::vector<Resource> resources_;
    std::unordered_map<FlowId, Flow> flows_;
    /** Active flows in id order (ids are monotonic, so a start
     * appends); a detach nulls its entry, and the list is compacted
     * once half its entries are null. */
    std::vector<Flow *> live_;
    std::size_t liveDead_ = 0;
    FlowId nextFlowId_ = 0;
    EventHandle completionEvent_;
    /** Absolute time the pending completion event targets. */
    SimTime completionEventAt_ = kTimeNever;
    /** Completion callbacks staged during integration. */
    std::vector<Callback> pendingCallbacks_;
    bool dispatching_ = false;
    bool referenceSolver_ = false;
    /** Dirty-set traversal epoch; bumped per solve. */
    uint64_t epoch_ = 0;
    /** Min-heap of active flows by predicted completion time. */
    std::vector<Flow *> heap_;
    /** The last solve's dirty set, kept for the next solve to patch:
     * resources in index order, flows in id order. A detach nulls
     * its flow's entry. */
    std::vector<Resource *> dirtyRes_;
    std::vector<Flow *> dirtyFlows_;
    /** Flows detached from dirtyFlows_ since the last solve. */
    std::size_t dirtyDropped_ = 0;
    /** Whether the busy resources of the kept dirty set form one
     * component; only then can it be patched. */
    bool dirtyConnected_ = false;
    /** Solve scratch, reused across solves (allocation-light). */
    std::vector<Resource *> patchRes_;
    std::vector<std::size_t> pieceParent_;
    /** Fair share of each dirty resource, by dirty position; +inf
     * once the resource has no unfrozen flow. Only grows: entries
     * past the current dirty set are stale. */
    std::vector<Rate> fair_;
    std::vector<Resource *> bfsStack_;
    std::vector<ResourceId> seedScratch_;
};

} // namespace sim
} // namespace chameleon

#endif // CHAMELEON_SIM_FLOW_NETWORK_HH_
