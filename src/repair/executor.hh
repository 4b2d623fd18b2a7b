/**
 * @file
 * Executes repair plans on the simulated cluster at slice
 * granularity, through one engine for parent-array trees (launch)
 * and explicit EcDag plans (launchDag).
 *
 * Both entry points build the same chunk state: vertices (a node, an
 * optional helper chunk the vertex reads from its disk, the edges
 * feeding it, and at most one edge shipping its result) and edges
 * that ship the from-vertex's result slice by slice (the paper
 * slices chunks for all algorithms so storage and network I/O
 * pipeline). A tree's vertex i is source i, which owns helper i and
 * combines whatever its children upload; its edge i is source i's
 * upload, and the destination is the root. A DAG's vertices and
 * edges are its own (dag/dag.hh): leaves own their helper, Join
 * vertices own none. Slices on one edge are serialized; slices of
 * different edges overlap, which is what gives CR its parallel star,
 * PPR its staged tree, and ECPipe its pipeline: a chain of k hops
 * split into S slices repairs a chunk in (k + S - 1)/S chunk
 * transfer times (ExecutorConfig::slices). A vertex holds slice s
 * once every edge currently feeding it delivered slice s, and only
 * then may its own edge send slice s.
 *
 * How an edge moves bytes follows from the plan's shape, not from
 * the entry point:
 *  - A network edge whose from-vertex owns a helper reads the helper
 *    from disk inside its upload flow; an edge carrying a partial
 *    result touches no disk.
 *  - A co-located edge (both vertices on one node; only lowered DAGs
 *    have them) is a local disk flow when the from-vertex owns a
 *    helper, otherwise a zero-time in-memory handoff. It holds no
 *    slots and pays no relay overhead.
 *  - A slice that carries contributions other than its sender's own
 *    pays the relay overhead before it leaves.
 * So a tree relay (one vertex that owns a helper and combines) and
 * its lowering by repair::fromTree (a leaf plus a co-located Join)
 * finish a chain at the same instant with the same bytes on every
 * network link, but the lowering starts (k-1)·S more flows: the
 * relays' separate local disk reads.
 *
 * Each node serves a bounded number of concurrent repair upload
 * slices (recovery read streams, tightly limited as in HDFS) and
 * download slices (reader streams at a destination, generous). This
 * mirrors the paper's task model — a node works through its assigned
 * upload tasks roughly in order, which is what the dispatcher's
 * R_i = T * |C| / B estimates assume — while letting a destination
 * ingest from its k sources in parallel.
 *
 * The executor also implements the two straggler-aware re-scheduling
 * primitives of Section III-C:
 *  - pauseChunk/resumeChunk (transmission re-ordering): stop
 *    launching new slices of a chunk; in-flight slices drain.
 *  - retuneEdge (repair re-tuning): redirect a source's remaining
 *    slices from its relay parent to the destination; the relay stops
 *    waiting for it, and correctness is preserved by linearity.
 *
 * Correctness is checked continuously on every combinable chunk:
 * each slice in flight carries the set of helper contributions it
 * folds in, every vertex asserts it receives each contribution at
 * most once, and the destination writes a slice once its set is
 * full and asserts at completion that every slice was.
 */

#ifndef CHAMELEON_REPAIR_EXECUTOR_HH_
#define CHAMELEON_REPAIR_EXECUTOR_HH_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hh"
#include "dag/dag.hh"
#include "repair/plan.hh"
#include "telemetry/metrics.hh"
#include "util/types.hh"

namespace chameleon {
namespace repair {

/** Handle for a launched chunk repair. */
using RepairId = int64_t;

inline constexpr RepairId kInvalidRepair = -1;

/** Chunk/slice sizing for plan execution. */
struct ExecutorConfig
{
    /** Chunk size (paper default: 64 MB as in HDFS). */
    Bytes chunkSize = 64 * units::MiB;
    /** Slice size (paper default: 1 MB). */
    Bytes sliceSize = 1 * units::MiB;
    /**
     * Concurrent repair upload slices a node serves. Models the
     * bounded recovery read streams of real systems (HDFS throttles
     * reconstruction streams per DataNode); 1 reproduces the strict
     * sequential task queue of the paper's timeslot model.
     */
    int nodeUploadSlots = 2;
    /**
     * Concurrent repair download slices a node accepts. Destinations
     * ingest from many sources in parallel (an HDFS ECWorker opens k
     * reader streams), so this is generous by default.
     */
    int nodeDownloadSlots = 16;
    /**
     * Seconds per MiB a relay needs before forwarding a received
     * slice: GF combination on CPUs shared with the co-located
     * foreground service, plus per-hop receive/send turnaround.
     * This is the cost of transmission dependency that makes
     * chained/tree plans "susceptible to network fluctuations" in
     * the paper's Section II-D analysis; direct (CR-style) transfers
     * never pay it. Expressed per MiB so the model is independent of
     * the configured slice size.
     */
    SimTime relayOverheadPerMiB = 0.010;
    /**
     * Number of slices a chunk splits into for pipelined execution.
     * 0 (the default) derives the count from sliceSize; a positive
     * value overrides it with exactly chunkSize / slices bytes per
     * slice, the knob the pipelining experiments sweep (S = 1 is
     * whole-chunk store-and-forward, large S approaches one slice
     * per hop in flight).
     */
    int slices = 0;

    /** The slice size execution actually uses; see `slices`. */
    Bytes effectiveSliceSize() const
    {
        return slices > 0 ? chunkSize / static_cast<double>(slices)
                          : sliceSize;
    }

    bool operator==(const ExecutorConfig &) const = default;
};

/** Observable state of one edge, consumed by the SAR scheduler. */
struct EdgeStatus
{
    /** Index of the uploading source within the plan (the sending
     * vertex of a launchDag chunk). */
    int source = 0;
    /** Current target: source (vertex) index or kToDestination. */
    int target = kToDestination;
    int slicesTotal = 0;
    int slicesDelivered = 0;
    bool done = false;
    bool retuned = false;
    /** True while a slice of this edge is in flight. */
    bool active = false;
    /** Scheduler-set expected completion time (kTimeNever if unset). */
    SimTime expectation = kTimeNever;
};

/** Slice-level plan executor; see file comment. */
class RepairExecutor
{
  public:
    /** Invoked once when a chunk's repair completes. */
    using ChunkDone =
        std::function<void(const ChunkRepairPlan &, SimTime)>;

    /**
     * Invoked once when a chunk's repair is aborted because a node
     * it depended on crashed (the node id is passed). The chunk's
     * executor state is gone by the time this fires; the scheduler
     * owns re-planning.
     */
    using ChunkFail = std::function<void(const ChunkRepairPlan &,
                                         NodeId, SimTime)>;

    /**
     * Integrity verification hooks (scrub subsystem); any may be
     * null. Both fire in event context; rejections abort the chunk
     * through the same path as a crash, so the session's bounded
     * retry + re-plan machinery applies unchanged.
     */
    struct IntegrityHooks
    {
        /** Verify-on-read: invoked once per helper chunk, when its
         * first slice is about to leave the hosting node (the read
         * runs the checksum kernel in-path). Return false to reject:
         * the repair aborts with the helper's node as the cause. The
         * hook is expected to promote the corrupt helper to lost
         * before returning, so the re-plan excludes it. */
        std::function<bool(StripeId, ChunkIndex, NodeId)>
            verifySource;
        /** Verify-after-decode: invoked when every transfer and
         * destination write has landed, before the repair completes.
         * Return kInvalidNode to accept, or the node of a corrupt
         * source to reject (abort + re-plan). */
        std::function<NodeId(const ChunkRepairPlan &)> verifyDecoded;
    };

    RepairExecutor(cluster::Cluster &cluster, ExecutorConfig config);

    const ExecutorConfig &config() const { return config_; }

    void setIntegrityHooks(IntegrityHooks hooks)
    {
        integrity_ = std::move(hooks);
    }

    cluster::Cluster &cluster() { return cluster_; }

    /** Starts executing `plan`; returns a handle for control calls. */
    RepairId launch(const ChunkRepairPlan &plan, ChunkDone on_done,
                    ChunkFail on_fail = nullptr);

    /**
     * Starts executing an explicit repair DAG (lowered from `plan`
     * by repair::fromTree, or built fresh by a topology override)
     * on the same engine as launch(); the file comment gives the
     * edge rules. The DAG must validate, so every non-root vertex
     * feeds exactly one consumer and each helper contribution
     * reaches the root exactly once.
     *
     * `plan` is retained as provenance for the completion/failure
     * callbacks and telemetry; it is not re-executed. Only these
     * chunks count toward the repair.exec.dag.* metrics.
     */
    RepairId launchDag(const dag::EcDag &dag,
                       const ChunkRepairPlan &plan, ChunkDone on_done,
                       ChunkFail on_fail = nullptr);

    /**
     * Aborts every active chunk whose destination is `node` or with
     * an unfinished edge reading from / sending to `node`: cancels
     * the chunk's network flows (including partially written
     * destination slices — the half-written destination is
     * invalidated, never registered as chunk data), releases its
     * node slots, erases its state, and fires its ChunkFail.
     * Call after the node's metadata says it is dead.
     *
     * @return the number of chunks aborted.
     */
    int abortChunksTouching(NodeId node);

    /**
     * Silently tears down a launched repair the caller no longer
     * wants (hedged degraded reads cancel the losing attempt once
     * the winner lands): cancels its flows, releases its slots, and
     * erases its state WITHOUT firing ChunkFail or counting an
     * abort — the cancellation is a scheduling decision, not a
     * failure.
     *
     * @return false when `id` is not active (already completed,
     *         aborted, or canceled), which callers treat as benign.
     */
    bool cancel(RepairId id);

    bool chunkActive(RepairId id) const;

    /** The plan being executed (valid while active). */
    const ChunkRepairPlan &plan(RepairId id) const;

    /** Per-edge progress snapshot (valid while active). */
    std::vector<EdgeStatus> edgeStatus(RepairId id) const;

    /** Sets the expectation used for straggler detection. */
    void setEdgeExpectation(RepairId id, int source, SimTime when);

    /** Transmission re-ordering: stop launching new slices. */
    void pauseChunk(RepairId id);

    /** Resumes a paused chunk. */
    void resumeChunk(RepairId id);

    bool chunkPaused(RepairId id) const;

    /**
     * Repair re-tuning: redirect source `source`'s remaining slices
     * to the destination. Only valid for edges currently targeting a
     * relay source; no-op if the edge already finished.
     */
    void retuneEdge(RepairId id, int source);

    /**
     * Number of unfinished, unpaused edges that touch `node` as the
     * uploader or the receive target (used by the re-ordering wakeup
     * check: a postponed chunk resumes once its nodes are otherwise
     * idle).
     */
    int activeEdgesTouching(NodeId node) const;

    /** Total chunks completed since construction. */
    int64_t completedChunks() const { return completedChunks_; }

    /** Total repaired bytes (chunkSize per completed chunk). */
    Bytes repairedBytes() const
    {
        return static_cast<double>(completedChunks_) *
               config_.chunkSize;
    }

  private:
    /** Helper-contribution bitmask, bit i for helper source i; a
     * full row is (1 << sources) - 1, so 63 sources fit. */
    using Mask = uint64_t;

    /** A slice-level result on one node; see file comment. */
    struct Vertex
    {
        NodeId node = kInvalidNode;
        /** The helper chunk this vertex reads from its node's disk:
         * its source index (the bit in contribution masks), chunk
         * index and read fraction. source < 0: owns no helper. */
        int source = -1;
        ChunkIndex chunk = 0;
        double fraction = 1.0;
        /** Edges currently feeding this vertex. */
        std::vector<int> in;
        /** The edge shipping this vertex's result; -1 at the root. */
        int out = -1;
    };

    /** Ships the from-vertex's result to the to-vertex. */
    struct Edge
    {
        int from = 0;
        int to = 0;
        int slicesTotal = 0;
        int nextSlice = 0;     // next slice index to launch
        int delivered = 0;     // slices fully delivered so far
        bool retuned = false;
        /** Integrity verify-on-read ran for the from-vertex's helper. */
        bool verified = false;
        sim::FlowId activeFlow = sim::kInvalidFlow;
        /** Nodes whose up/down slots the in-flight slice occupies. */
        NodeId holdUp = kInvalidNode;
        NodeId holdDown = kInvalidNode;
        SimTime expectation = kTimeNever;
        /** Payload mask of the slice currently in flight. */
        Mask inFlightMask = 0;
        /** Launch instant of the in-flight network slice. */
        SimTime sliceStart = 0.0;
    };

    struct ChunkExec
    {
        RepairId id = kInvalidRepair;
        ChunkRepairPlan plan;
        std::vector<Vertex> vertices;
        std::vector<Edge> edges;
        /** The vertex holding the reconstructed chunk, on the
         * destination node. */
        int root = 0;
        bool combinable = true;
        /** Launched through launchDag (counts toward dag.*). */
        bool dag = false;
        int chunkSlices = 0; // slices of a full chunk
        /** Contributions the root holds once a slice is complete. */
        Mask fullMask = 0;
        /** masks[v * chunkSlices + s]: contributions vertex v has
         * received for slice s (combinable chunks only). */
        std::vector<Mask> masks;
        /** Reconstructed slices persisted to the destination disk.
         * The destination combines contributions in memory and
         * writes each repaired slice exactly once. */
        int writesIssued = 0;
        int writesDone = 0;
        bool paused = false;
        ChunkDone onDone;
        ChunkFail onFail;
        /** In-flight destination disk writes, so a destination
         * crash can cancel the half-written slices. */
        std::vector<sim::FlowId> destWrites;
        /** Telemetry: launch instant for the chunk's repair span. */
        SimTime launchTime = 0.0;
        /** Pipeline telemetry: concurrent network slice flows, their
         * peak, and total network flow-seconds (occupancy). */
        int activeNetFlows = 0;
        int maxActiveNetFlows = 0;
        double netFlowSeconds = 0.0;
    };

    /** Appends the edge from -> to, feeding `to`. */
    void addEdge(ChunkExec &chunk, int from, int to) const;
    /** Registers a built chunk and schedules its first launches. */
    RepairId start(ChunkExec chunk, ChunkDone on_done,
                   ChunkFail on_fail);
    void tryLaunchEdge(ChunkExec &chunk, int edge_index);
    /** Starts the network flow for an edge's pending slice (after
     * slot acquisition and any relay overhead). */
    void beginSliceFlow(ChunkExec &chunk, int edge_index);
    void onSliceDelivered(RepairId id, int edge_index);
    /** Persists a reconstructed slice at the destination. */
    void issueDestWrite(ChunkExec &chunk, Bytes bytes);
    void checkChunkDone(RepairId id);
    /** True once every edge feeding `v` delivered slice `s`. */
    bool holds(const ChunkExec &chunk, int v, int s) const;
    bool coLocated(const ChunkExec &chunk, const Edge &edge) const
    {
        return chunk.vertices[static_cast<std::size_t>(edge.from)]
                   .node ==
               chunk.vertices[static_cast<std::size_t>(edge.to)].node;
    }
    Bytes sliceBytes(const ChunkExec &chunk, const Edge &edge,
                     int s) const;
    static Mask ownMask(const Vertex &v)
    {
        return v.source >= 0 ? Mask(1) << v.source : 0;
    }
    static Mask &mask(ChunkExec &chunk, int v, int s)
    {
        return chunk.masks[static_cast<std::size_t>(
            v * chunk.chunkSlices + s)];
    }

    const ChunkExec &get(RepairId id) const;
    ChunkExec &get(RepairId id);

    /** Per-node repair slice slots; see file comment. */
    struct NodeSlots
    {
        int upActive = 0;
        int downActive = 0;
        /** Edges blocked on this node's slots, woken on release. */
        std::vector<std::pair<RepairId, int>> upWaiters;
        std::vector<std::pair<RepairId, int>> downWaiters;
    };

    void wake(std::vector<std::pair<RepairId, int>> &waiters);
    void releaseSlots(Edge &edge);
    /** Cancels the edge's in-flight slice flow, if it has one;
     * returns whether it did. */
    bool stopSlice(ChunkExec &chunk, Edge &edge);
    /** Cancels every flow and releases every slot of `chunk`. */
    void teardown(ChunkExec &chunk);
    void abortChunk(RepairId id, NodeId cause);

    cluster::Cluster &cluster_;
    ExecutorConfig config_;
    IntegrityHooks integrity_;
    /** Metric handles (see telemetry/metrics.hh). */
    telemetry::Counter &metChunks_;
    telemetry::Counter &metSlices_;
    /** Bytes folded by GF combination at relays/destination — the
     * codec work a real deployment would push through the SIMD
     * region kernels (gf::mulAddRegionMulti). */
    telemetry::Counter &metCodecBytes_;
    /** Delivered slices that carried a partial decode (i.e. the
     * sender was a relay that combined before forwarding). */
    telemetry::Counter &metCombinedSlices_;
    /** Chunk repairs aborted by node crashes. */
    telemetry::Counter &metAborts_;
    /** Integrity-hook rejections: corrupt helper caught at read time
     * vs. a reconstruction rejected after decode. */
    telemetry::Counter &metVerifyRejects_;
    telemetry::Counter &metDecodeRejects_;
    /** launchDag-chunk metrics: chunks, slice deliveries (local =
     * co-located hops), per-chunk peak concurrent network slice
     * flows, and network occupancy (flow-seconds / repair
     * makespan). */
    telemetry::Counter &metDagChunks_;
    telemetry::Counter &metDagSlices_;
    telemetry::Counter &metDagLocalSlices_;
    telemetry::Histogram &metDagPipelineDepth_;
    telemetry::Histogram &metDagOccupancy_;
    std::unordered_map<RepairId, ChunkExec> active_;
    std::vector<NodeSlots> slots_;
    RepairId nextId_ = 0;
    int64_t completedChunks_ = 0;
};

} // namespace repair
} // namespace chameleon

#endif // CHAMELEON_REPAIR_EXECUTOR_HH_
