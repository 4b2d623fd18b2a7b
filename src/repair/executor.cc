#include "repair/executor.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace repair {

namespace {

/** Sentinel marking an edge whose flow is being created right now,
 * protecting against re-entrant double launches. */
constexpr sim::FlowId kLaunchingFlow = -2;

int
sliceCount(Bytes total, Bytes slice)
{
    return static_cast<int>(std::ceil(total / slice));
}

} // namespace

RepairExecutor::RepairExecutor(cluster::Cluster &cluster,
                               ExecutorConfig config)
    : cluster_(cluster), config_(config),
      metChunks_(telemetry::metrics().counter("repair.exec.chunks")),
      metSlices_(telemetry::metrics().counter("repair.exec.slices")),
      metCodecBytes_(
          telemetry::metrics().counter("repair.exec.codec_bytes")),
      metCombinedSlices_(telemetry::metrics().counter(
          "repair.exec.combined_slices")),
      metAborts_(telemetry::metrics().counter("repair.exec.aborts")),
      metVerifyRejects_(telemetry::metrics().counter(
          "repair.exec.verify_rejects")),
      metDecodeRejects_(telemetry::metrics().counter(
          "repair.exec.decode_rejects")),
      metDagChunks_(
          telemetry::metrics().counter("repair.exec.dag.chunks")),
      metDagSlices_(
          telemetry::metrics().counter("repair.exec.dag.slices")),
      metDagLocalSlices_(telemetry::metrics().counter(
          "repair.exec.dag.local_slices")),
      metDagPipelineDepth_(telemetry::metrics().histogram(
          "repair.exec.dag.pipeline_depth",
          {1, 2, 4, 8, 16, 32, 64, 128})),
      metDagOccupancy_(telemetry::metrics().histogram(
          "repair.exec.dag.occupancy",
          {0.5, 1, 2, 4, 8, 16, 32}))
{
    CHAMELEON_ASSERT(config_.chunkSize > 0 && config_.sliceSize > 0,
                     "sizes must be positive");
    CHAMELEON_ASSERT(config_.sliceSize <= config_.chunkSize,
                     "slice larger than chunk");
    CHAMELEON_ASSERT(config_.slices >= 0, "negative slice count");
    slots_.resize(static_cast<std::size_t>(cluster_.numNodes()));
}

void
RepairExecutor::wake(std::vector<std::pair<RepairId, int>> &waiters)
{
    if (waiters.empty())
        return;
    auto woken = std::move(waiters);
    waiters.clear();
    for (const auto &[id, edge_index] : woken) {
        cluster_.simulator().scheduleAfter(
            0.0, [this, id = id, edge_index = edge_index] {
                auto it = active_.find(id);
                if (it != active_.end())
                    tryLaunchEdge(it->second, edge_index);
            });
    }
}

void
RepairExecutor::addEdge(ChunkExec &chunk, int from, int to) const
{
    Edge edge;
    edge.from = from;
    edge.to = to;
    edge.slicesTotal = sliceCount(
        chunk.vertices[static_cast<std::size_t>(from)].fraction *
            config_.chunkSize,
        config_.effectiveSliceSize());
    const int index = static_cast<int>(chunk.edges.size());
    chunk.edges.push_back(edge);
    chunk.vertices[static_cast<std::size_t>(to)].in.push_back(index);
    chunk.vertices[static_cast<std::size_t>(from)].out = index;
}

RepairId
RepairExecutor::launch(const ChunkRepairPlan &plan, ChunkDone on_done,
                       ChunkFail on_fail)
{
    plan.validate();
    ChunkExec chunk;
    chunk.plan = plan;
    chunk.combinable = plan.combinable;
    // Vertex i is source i; vertex n, the root, is the destination.
    // Edge i is source i's upload.
    const int n = static_cast<int>(plan.sources.size());
    chunk.vertices.resize(static_cast<std::size_t>(n + 1));
    for (int i = 0; i < n; ++i) {
        const auto &src = plan.sources[static_cast<std::size_t>(i)];
        Vertex &v = chunk.vertices[static_cast<std::size_t>(i)];
        v.node = src.node;
        v.source = i;
        v.chunk = src.chunk;
        v.fraction = src.fraction;
    }
    chunk.vertices[static_cast<std::size_t>(n)].node = plan.destination;
    chunk.root = n;
    for (int i = 0; i < n; ++i) {
        const int parent =
            plan.sources[static_cast<std::size_t>(i)].parent;
        addEdge(chunk, i, parent == kToDestination ? n : parent);
    }
    return start(std::move(chunk), std::move(on_done),
                 std::move(on_fail));
}

RepairId
RepairExecutor::launchDag(const dag::EcDag &d,
                          const ChunkRepairPlan &plan,
                          ChunkDone on_done, ChunkFail on_fail)
{
    d.validate();
    CHAMELEON_ASSERT(!d.vertex(d.root()).isLeaf(),
                     "DAG root must combine at least one input");
    ChunkExec chunk;
    chunk.plan = plan;
    chunk.combinable = d.combinable;
    chunk.dag = true;
    const int nv = d.vertexCount();
    chunk.vertices.resize(static_cast<std::size_t>(nv));
    for (dag::VertexId v = 0; v < nv; ++v) {
        const auto &vert = d.vertex(v);
        Vertex &out = chunk.vertices[static_cast<std::size_t>(v)];
        out.node = vert.node;
        if (vert.isLeaf()) {
            const auto &src =
                d.sources()[static_cast<std::size_t>(vert.source)];
            out.source = vert.source;
            out.chunk = src.chunk;
            out.fraction = src.fraction;
        }
    }
    chunk.root = d.root();
    // Each vertex's in-edges, vertices in ascending order.
    for (dag::VertexId v = 0; v < nv; ++v)
        for (dag::VertexId f : d.vertex(v).in)
            addEdge(chunk, f, v);
    return start(std::move(chunk), std::move(on_done),
                 std::move(on_fail));
}

RepairId
RepairExecutor::start(ChunkExec chunk, ChunkDone on_done,
                      ChunkFail on_fail)
{
    int helpers = 0;
    for (const Vertex &v : chunk.vertices)
        helpers += (v.source >= 0);
    CHAMELEON_ASSERT(helpers >= 1 && helpers <= 63,
                     "repair reads ", helpers,
                     " helpers; contribution masks hold 1 to 63");

    const RepairId id = nextId_++;
    chunk.id = id;
    chunk.onDone = std::move(on_done);
    chunk.onFail = std::move(on_fail);
    chunk.launchTime = cluster_.simulator().now();
    chunk.chunkSlices =
        sliceCount(config_.chunkSize, config_.effectiveSliceSize());
    chunk.fullMask = (Mask(1) << helpers) - 1;
    if (chunk.combinable)
        chunk.masks.assign(chunk.vertices.size() *
                               static_cast<std::size_t>(
                                   chunk.chunkSlices),
                           0);
    const int nedges = static_cast<int>(chunk.edges.size());
    active_.emplace(id, std::move(chunk));

    // Defer initial launches through the event loop so launch() and
    // launchDag() are safe to call from any context.
    for (int i = 0; i < nedges; ++i) {
        cluster_.simulator().scheduleAfter(0.0, [this, id, i] {
            auto it = active_.find(id);
            if (it != active_.end())
                tryLaunchEdge(it->second, i);
        });
    }
    return id;
}

bool
RepairExecutor::chunkActive(RepairId id) const
{
    return active_.count(id) > 0;
}

const RepairExecutor::ChunkExec &
RepairExecutor::get(RepairId id) const
{
    auto it = active_.find(id);
    CHAMELEON_ASSERT(it != active_.end(), "repair ", id, " not active");
    return it->second;
}

RepairExecutor::ChunkExec &
RepairExecutor::get(RepairId id)
{
    auto it = active_.find(id);
    CHAMELEON_ASSERT(it != active_.end(), "repair ", id, " not active");
    return it->second;
}

const ChunkRepairPlan &
RepairExecutor::plan(RepairId id) const
{
    return get(id).plan;
}

std::vector<EdgeStatus>
RepairExecutor::edgeStatus(RepairId id) const
{
    const ChunkExec &chunk = get(id);
    std::vector<EdgeStatus> out;
    for (const Edge &edge : chunk.edges) {
        EdgeStatus st;
        st.source = edge.from;
        st.target =
            edge.to == chunk.root ? kToDestination : edge.to;
        st.slicesTotal = edge.slicesTotal;
        st.slicesDelivered = edge.delivered;
        st.done = (edge.delivered >= edge.slicesTotal);
        st.retuned = edge.retuned;
        st.active = (edge.activeFlow != sim::kInvalidFlow);
        st.expectation = edge.expectation;
        out.push_back(st);
    }
    return out;
}

void
RepairExecutor::setEdgeExpectation(RepairId id, int source,
                                   SimTime when)
{
    ChunkExec &chunk = get(id);
    CHAMELEON_ASSERT(source >= 0 &&
                     source < static_cast<int>(chunk.edges.size()),
                     "bad edge index ", source);
    chunk.edges[static_cast<std::size_t>(source)].expectation = when;
}

void
RepairExecutor::pauseChunk(RepairId id)
{
    ChunkExec &chunk = get(id);
    chunk.paused = true;
    // Postpone the chunk's transmissions: cancel in-flight slices
    // (they restart from the slice boundary on resume) so the node
    // slots they occupy — possibly crawling through a straggler —
    // free up for other chunks immediately.
    for (Edge &edge : chunk.edges) {
        stopSlice(chunk, edge);
        // Also release slots an idle edge is holding between slices
        // (task continuity); launching edges release via
        // beginSliceFlow's paused check.
        if (edge.activeFlow == sim::kInvalidFlow)
            releaseSlots(edge);
    }
}

void
RepairExecutor::resumeChunk(RepairId id)
{
    ChunkExec &chunk = get(id);
    if (!chunk.paused)
        return;
    chunk.paused = false;
    for (int i = 0; i < static_cast<int>(chunk.edges.size()); ++i) {
        cluster_.simulator().scheduleAfter(
            0.0, [this, id, i] {
                auto it = active_.find(id);
                if (it != active_.end())
                    tryLaunchEdge(it->second, i);
            });
    }
}

bool
RepairExecutor::chunkPaused(RepairId id) const
{
    return get(id).paused;
}

void
RepairExecutor::retuneEdge(RepairId id, int source)
{
    ChunkExec &chunk = get(id);
    CHAMELEON_ASSERT(chunk.combinable,
                     "cannot re-tune a non-combinable plan");
    CHAMELEON_ASSERT(source >= 0 &&
                     source < static_cast<int>(chunk.edges.size()),
                     "bad edge index ", source);
    Edge &edge = chunk.edges[static_cast<std::size_t>(source)];
    if (edge.to == chunk.root)
        return; // already uploads to the destination
    if (edge.delivered >= edge.slicesTotal)
        return; // finished; nothing to redirect

    const int old_to = edge.to;
    // Abandon the in-flight slice (its bytes are wasted, as a real
    // re-tuned transfer's would be) and redirect the remainder.
    if (stopSlice(chunk, edge))
        releaseSlots(edge);
    std::erase(chunk.vertices[static_cast<std::size_t>(old_to)].in,
               source);
    chunk.vertices[static_cast<std::size_t>(chunk.root)].in.push_back(
        source);
    edge.to = chunk.root;
    edge.retuned = true;
    // Keep a tree plan's bookkeeping in step so childrenOf() and
    // later validation reflect reality.
    if (!chunk.dag)
        chunk.plan.sources[static_cast<std::size_t>(source)].parent =
            kToDestination;

    // The old relay no longer waits for this edge; it may have a
    // blocked slice ready to go, and this edge restarts toward the
    // destination.
    cluster_.simulator().scheduleAfter(
        0.0, [this, id, source, old_to] {
            auto it = active_.find(id);
            if (it == active_.end())
                return;
            tryLaunchEdge(it->second, source);
            tryLaunchEdge(
                it->second,
                it->second.vertices[static_cast<std::size_t>(old_to)]
                    .out);
        });
}

int
RepairExecutor::activeEdgesTouching(NodeId node) const
{
    int count = 0;
    for (const auto &[id, chunk] : active_) {
        if (chunk.paused)
            continue;
        for (const Edge &edge : chunk.edges) {
            if (edge.delivered >= edge.slicesTotal ||
                coLocated(chunk, edge))
                continue;
            if (chunk.vertices[static_cast<std::size_t>(edge.from)]
                        .node == node ||
                chunk.vertices[static_cast<std::size_t>(edge.to)]
                        .node == node)
                ++count;
        }
    }
    return count;
}

bool
RepairExecutor::holds(const ChunkExec &chunk, int v, int s) const
{
    for (int e : chunk.vertices[static_cast<std::size_t>(v)].in)
        if (chunk.edges[static_cast<std::size_t>(e)].delivered <= s)
            return false;
    return true;
}

Bytes
RepairExecutor::sliceBytes(const ChunkExec &chunk, const Edge &edge,
                           int s) const
{
    const Bytes total =
        chunk.vertices[static_cast<std::size_t>(edge.from)].fraction *
        config_.chunkSize;
    const Bytes slice = config_.effectiveSliceSize();
    return std::min(slice, total - static_cast<double>(s) * slice);
}

void
RepairExecutor::tryLaunchEdge(ChunkExec &chunk, int edge_index)
{
    Edge &edge = chunk.edges[static_cast<std::size_t>(edge_index)];
    if (chunk.paused || edge.activeFlow != sim::kInvalidFlow ||
        edge.nextSlice >= edge.slicesTotal ||
        !holds(chunk, edge.from, edge.nextSlice)) {
        // Do not sit on slots while unable to send.
        if (edge.activeFlow == sim::kInvalidFlow)
            releaseSlots(edge);
        return;
    }

    const int s = edge.nextSlice;
    const Vertex &from = chunk.vertices[static_cast<std::size_t>(
        edge.from)];
    const NodeId to = chunk.vertices[static_cast<std::size_t>(edge.to)]
                          .node;
    const RepairId id = chunk.id;

    // Verify-on-read: the first slice launch is where the helper's
    // payload leaves its disk, so the checksum kernel runs here. A
    // corrupt helper aborts the whole chunk (deferred — the hook may
    // mutate stripe state and the abort destroys `chunk`).
    if (from.source >= 0 && !edge.verified) {
        edge.verified = true;
        if (integrity_.verifySource &&
            !integrity_.verifySource(chunk.plan.stripe, from.chunk,
                                     from.node)) {
            metVerifyRejects_.add();
            const NodeId bad = from.node;
            releaseSlots(edge);
            cluster_.simulator().scheduleAfter(
                0.0, [this, id, bad] {
                    if (active_.find(id) != active_.end())
                        abortChunk(id, bad);
                });
            return;
        }
    }

    if (chunk.combinable)
        edge.inFlightMask = ownMask(from) | mask(chunk, edge.from, s);

    if (from.node == to) {
        // Co-located hop, no network slots: a helper is read from the
        // local disk (slice by slice, sharing the disk with every
        // other flow); a partial decode is handed over in memory.
        edge.activeFlow = kLaunchingFlow;
        if (from.source >= 0) {
            CHAMELEON_ASSERT(!cluster_.nodeDown(to),
                             "repair slice reads from dead node ", to);
            const Bytes bytes = sliceBytes(chunk, edge, s);
            CHAMELEON_ASSERT(bytes > 0, "empty slice");
            edge.activeFlow = cluster_.network().startFlow(
                {cluster_.disk(to)}, bytes, sim::FlowTag::kRepair,
                sim::FlowLabel{id, edge.from, s},
                [this, id, edge_index] {
                    onSliceDelivered(id, edge_index);
                });
        } else {
            cluster_.simulator().scheduleAfter(
                0.0, [this, id, edge_index] {
                    // No-op if a crash aborted the chunk meanwhile.
                    if (active_.find(id) != active_.end())
                        onSliceDelivered(id, edge_index);
                });
        }
        return;
    }

    // Per-node repair slots (bounded reconstruction streams).
    // Blocked edges wait for a release. An edge that already holds
    // its slots (continuing a task) skips acquisition.
    if (edge.holdUp == kInvalidNode) {
        auto &src_slots = slots_[static_cast<std::size_t>(from.node)];
        auto &dst_slots = slots_[static_cast<std::size_t>(to)];
        if (src_slots.upActive >= config_.nodeUploadSlots) {
            src_slots.upWaiters.emplace_back(id, edge_index);
            return;
        }
        if (dst_slots.downActive >= config_.nodeDownloadSlots) {
            dst_slots.downWaiters.emplace_back(id, edge_index);
            return;
        }
        src_slots.upActive += 1;
        dst_slots.downActive += 1;
        edge.holdUp = from.node;
        edge.holdDown = to;
    }

    edge.activeFlow = kLaunchingFlow;

    // Relay forwarding overhead: a combined (partially decoded)
    // slice costs CPU and turnaround time at the relay before it can
    // leave, and the relay's upload stream is occupied meanwhile.
    // Pure helper slices (CR-style direct uploads) skip it.
    const bool combined =
        chunk.combinable && edge.inFlightMask != ownMask(from);
    if (combined && config_.relayOverheadPerMiB > 0) {
        cluster_.simulator().scheduleAfter(
            config_.relayOverheadPerMiB * sliceBytes(chunk, edge, s) /
                units::MiB,
            [this, id, edge_index] {
                auto it = active_.find(id);
                if (it != active_.end())
                    beginSliceFlow(it->second, edge_index);
            });
    } else {
        beginSliceFlow(chunk, edge_index);
    }
}

void
RepairExecutor::beginSliceFlow(ChunkExec &chunk, int edge_index)
{
    Edge &edge = chunk.edges[static_cast<std::size_t>(edge_index)];
    CHAMELEON_ASSERT(edge.activeFlow == kLaunchingFlow,
                     "beginSliceFlow on an edge with no pending slice");
    if (chunk.paused) {
        // Postponed while the relay was combining: back off fully.
        edge.activeFlow = sim::kInvalidFlow;
        releaseSlots(edge);
        return;
    }
    const int s = edge.nextSlice;
    const Vertex &from = chunk.vertices[static_cast<std::size_t>(
        edge.from)];
    // Recompute the target: a re-tune may have redirected the edge
    // while the relay was combining.
    const NodeId to = chunk.vertices[static_cast<std::size_t>(edge.to)]
                          .node;
    if (to != edge.holdDown) {
        // Move the held download slot to the new target.
        auto &old_slots =
            slots_[static_cast<std::size_t>(edge.holdDown)];
        CHAMELEON_ASSERT(old_slots.downActive > 0, "slot underflow");
        old_slots.downActive -= 1;
        wake(old_slots.downWaiters);
        slots_[static_cast<std::size_t>(to)].downActive += 1;
        edge.holdDown = to;
    }

    // A vertex that owns a helper reads its slice from disk inside
    // the upload; a partial decode leaves from memory. Relays and
    // the destination fold received contributions in memory, and the
    // destination persists each *reconstructed* slice exactly once
    // via issueDestWrite(), so incoming transfers never pass through
    // its disk.
    auto path = cluster_.transferPath(from.node, to,
                                      /*read_disk=*/from.source >= 0,
                                      /*write_disk=*/false);
    const Bytes bytes = sliceBytes(chunk, edge, s);
    CHAMELEON_ASSERT(bytes > 0, "empty slice");
    // The no-dead-node invariant: crashes abort every affected chunk
    // synchronously, so a launch can never involve a down node.
    CHAMELEON_ASSERT(!cluster_.nodeDown(from.node),
                     "repair slice reads from dead node ", from.node);
    CHAMELEON_ASSERT(!cluster_.nodeDown(to),
                     "repair slice sends to dead node ", to);

    const RepairId id = chunk.id;
    edge.sliceStart = cluster_.simulator().now();
    chunk.activeNetFlows += 1;
    chunk.maxActiveNetFlows =
        std::max(chunk.maxActiveNetFlows, chunk.activeNetFlows);
    edge.activeFlow = cluster_.network().startFlow(
        std::move(path), bytes, sim::FlowTag::kRepair,
        sim::FlowLabel{id, edge.from, s},
        [this, id, edge_index] { onSliceDelivered(id, edge_index); });
}

void
RepairExecutor::releaseSlots(Edge &edge)
{
    if (edge.holdUp != kInvalidNode) {
        auto &s = slots_[static_cast<std::size_t>(edge.holdUp)];
        CHAMELEON_ASSERT(s.upActive > 0, "slot underflow");
        s.upActive -= 1;
        wake(s.upWaiters);
        edge.holdUp = kInvalidNode;
    }
    if (edge.holdDown != kInvalidNode) {
        auto &s = slots_[static_cast<std::size_t>(edge.holdDown)];
        CHAMELEON_ASSERT(s.downActive > 0, "slot underflow");
        s.downActive -= 1;
        wake(s.downWaiters);
        edge.holdDown = kInvalidNode;
    }
}

bool
RepairExecutor::stopSlice(ChunkExec &chunk, Edge &edge)
{
    // kLaunchingFlow edges have a deferred continuation in the event
    // queue; it backs off on a paused chunk and no-ops once the
    // chunk leaves active_.
    if (edge.activeFlow == sim::kInvalidFlow ||
        edge.activeFlow == kLaunchingFlow)
        return false;
    cluster_.network().cancelFlow(edge.activeFlow);
    edge.activeFlow = sim::kInvalidFlow;
    if (!coLocated(chunk, edge))
        chunk.activeNetFlows -= 1;
    return true;
}

int
RepairExecutor::abortChunksTouching(NodeId node)
{
    // Collect first: aborting mutates active_ and fires callbacks
    // that may launch replacement chunks.
    std::vector<RepairId> doomed;
    for (const auto &[id, chunk] : active_) {
        if (chunk.vertices[static_cast<std::size_t>(chunk.root)].node ==
            node) {
            doomed.push_back(id);
            continue;
        }
        for (const Edge &edge : chunk.edges) {
            if (edge.delivered >= edge.slicesTotal)
                continue; // data already delivered; node not needed
            if (chunk.vertices[static_cast<std::size_t>(edge.from)]
                        .node == node ||
                chunk.vertices[static_cast<std::size_t>(edge.to)]
                        .node == node) {
                doomed.push_back(id);
                break;
            }
        }
    }
    for (RepairId id : doomed)
        abortChunk(id, node);
    return static_cast<int>(doomed.size());
}

void
RepairExecutor::teardown(ChunkExec &chunk)
{
    for (Edge &edge : chunk.edges) {
        stopSlice(chunk, edge);
        edge.activeFlow = sim::kInvalidFlow;
        releaseSlots(edge);
    }
    // Finished writes are a no-op cancel (no solve), so no
    // flowActive pre-filter is needed.
    for (sim::FlowId write : chunk.destWrites)
        cluster_.network().cancelFlow(write);
}

bool
RepairExecutor::cancel(RepairId id)
{
    auto it = active_.find(id);
    if (it == active_.end())
        return false;
    teardown(it->second);
    active_.erase(it);
    return true;
}

void
RepairExecutor::abortChunk(RepairId id, NodeId cause)
{
    auto it = active_.find(id);
    CHAMELEON_ASSERT(it != active_.end(), "abort of inactive repair ",
                     id);
    ChunkExec &chunk = it->second;
    teardown(chunk);
    metAborts_.add();
    const SimTime now = cluster_.simulator().now();
    CHAMELEON_TELEM(telemetry::tracer().instant(
        now, telemetry::kTrackFault, "fault", "abort",
        {{"stripe", chunk.plan.stripe},
         {"chunk", chunk.plan.failedChunk},
         {"dest",
          chunk.vertices[static_cast<std::size_t>(chunk.root)].node},
         {"cause_node", cause}}));
    auto plan_copy = chunk.plan;
    auto on_fail = std::move(chunk.onFail);
    active_.erase(it);
    if (on_fail)
        on_fail(plan_copy, cause, now);
}

void
RepairExecutor::onSliceDelivered(RepairId id, int edge_index)
{
    auto it = active_.find(id);
    CHAMELEON_ASSERT(it != active_.end(),
                     "slice delivery for inactive repair ", id);
    ChunkExec &chunk = it->second;
    Edge &edge = chunk.edges[static_cast<std::size_t>(edge_index)];

    const int s = edge.nextSlice;
    const int to = edge.to;
    edge.activeFlow = sim::kInvalidFlow;
    edge.delivered = s + 1;
    edge.nextSlice = s + 1;
    metSlices_.add();
    if (chunk.dag)
        metDagSlices_.add();
    if (coLocated(chunk, edge)) {
        metDagLocalSlices_.add(); // only lowered DAGs co-locate
    } else {
        chunk.activeNetFlows -= 1;
        chunk.netFlowSeconds +=
            cluster_.simulator().now() - edge.sliceStart;
        // Task-queue semantics: the edge keeps its slots while it
        // has immediately sendable slices (a node works through an
        // upload task to completion, as the paper's per-node task
        // model and the dispatcher's serial-time estimates assume);
        // it yields them when done, paused, or blocked on a
        // dependency.
        const bool continues = edge.nextSlice < edge.slicesTotal &&
                               !chunk.paused &&
                               holds(chunk, edge.from, edge.nextSlice);
        if (!continues)
            releaseSlots(edge);
    }

    if (chunk.combinable) {
        // The receiver folds this slice into its partial decode — a
        // mulAddRegionMulti's worth of codec work per delivery.
        metCodecBytes_.add(
            static_cast<int64_t>(sliceBytes(chunk, edge, s)));
        const Mask m = edge.inFlightMask;
        if (m != ownMask(chunk.vertices[static_cast<std::size_t>(
                     edge.from)]))
            metCombinedSlices_.add();
        Mask &held = mask(chunk, to, s);
        CHAMELEON_ASSERT((held & m) == 0, "slice ", s, " of repair ",
                         id, " delivered a duplicate contribution");
        held |= m;
        if (to == chunk.root && held == chunk.fullMask) {
            // Slice fully reconstructed: persist it.
            const Bytes slice = config_.effectiveSliceSize();
            issueDestWrite(chunk,
                           std::min(slice, config_.chunkSize -
                                               static_cast<double>(s) *
                                                   slice));
        }
    }

    // Defer follow-up launches so this callback stays re-entrant
    // safe with respect to the flow network's dispatch loop: this
    // edge's next slice, then the edge shipping what `to` now holds.
    cluster_.simulator().scheduleAfter(0.0, [this, id, edge_index,
                                             to] {
        auto lit = active_.find(id);
        if (lit == active_.end())
            return;
        tryLaunchEdge(lit->second, edge_index);
        const int out =
            lit->second.vertices[static_cast<std::size_t>(to)].out;
        if (out >= 0)
            tryLaunchEdge(lit->second, out);
    });

    checkChunkDone(id);
}

void
RepairExecutor::issueDestWrite(ChunkExec &chunk, Bytes bytes)
{
    const NodeId dest =
        chunk.vertices[static_cast<std::size_t>(chunk.root)].node;
    CHAMELEON_ASSERT(!cluster_.nodeDown(dest),
                     "destination write on dead node ", dest);
    chunk.writesIssued += 1;
    const RepairId id = chunk.id;
    sim::FlowId flow = cluster_.network().startFlow(
        {cluster_.disk(dest)}, bytes, sim::FlowTag::kRepair, [this, id] {
            auto it = active_.find(id);
            CHAMELEON_ASSERT(it != active_.end(),
                             "write completion for inactive repair");
            it->second.writesDone += 1;
            checkChunkDone(id);
        });
    // Track the write so a destination crash can invalidate it;
    // completed writes are pruned lazily at the next issue/abort.
    std::erase_if(chunk.destWrites, [this](sim::FlowId f) {
        return !cluster_.network().flowActive(f);
    });
    chunk.destWrites.push_back(flow);
}

void
RepairExecutor::checkChunkDone(RepairId id)
{
    auto it = active_.find(id);
    if (it == active_.end())
        return;
    ChunkExec &chunk = it->second;
    for (const Edge &edge : chunk.edges) {
        if (edge.delivered < edge.slicesTotal)
            return;
    }
    // Non-combinable codes reconstruct from sub-chunks after all
    // transfers arrive, then persist the whole chunk.
    if (!chunk.combinable && chunk.writesIssued == 0)
        issueDestWrite(chunk, config_.chunkSize);
    if (chunk.writesDone < chunk.writesIssued ||
        chunk.writesIssued == 0)
        return;
    if (chunk.combinable) {
        // Every slice must have exactly one contribution from every
        // source — the invariant that re-tuning must preserve.
        for (int s = 0; s < chunk.chunkSlices; ++s) {
            const Mask held = mask(chunk, chunk.root, s);
            CHAMELEON_ASSERT(held == chunk.fullMask, "slice ", s,
                             " of repair ", id,
                             " is missing contributions: mask ", held,
                             " != ", chunk.fullMask);
        }
    }
    // Verify-after-decode: the reconstruction is complete; checksum
    // the decoded payload before declaring success. A rejection
    // aborts through the normal path (deferred — we are inside flow
    // completion dispatch, and no further events reference this
    // chunk, so the hook fires exactly once).
    if (integrity_.verifyDecoded) {
        const NodeId bad = integrity_.verifyDecoded(chunk.plan);
        if (bad != kInvalidNode) {
            metDecodeRejects_.add();
            cluster_.simulator().scheduleAfter(
                0.0, [this, id, bad] {
                    if (active_.find(id) != active_.end())
                        abortChunk(id, bad);
                });
            return;
        }
    }
    ++completedChunks_;
    metChunks_.add();
    const SimTime now = cluster_.simulator().now();
    const SimTime makespan = now - chunk.launchTime;
    if (chunk.dag) {
        metDagChunks_.add();
        metDagPipelineDepth_.observe(
            static_cast<double>(chunk.maxActiveNetFlows));
        if (makespan > 0)
            metDagOccupancy_.observe(chunk.netFlowSeconds / makespan);
    }
    CHAMELEON_TELEM({
        // Longest chain of edges from a vertex to the root.
        int depth = 0;
        for (const Vertex &v : chunk.vertices) {
            int hops = 0;
            for (int e = v.out; e >= 0; ++hops)
                e = chunk.vertices[static_cast<std::size_t>(
                                       chunk.edges[static_cast<
                                           std::size_t>(e)].to)]
                        .out;
            depth = std::max(depth, hops);
        }
        telemetry::tracer().complete(
            chunk.launchTime, makespan, telemetry::kTrackExecutor,
            "repair", "chunk",
            {{"stripe", chunk.plan.stripe},
             {"chunk", chunk.plan.failedChunk},
             {"dest",
              chunk.vertices[static_cast<std::size_t>(chunk.root)]
                  .node},
             {"sources", std::popcount(chunk.fullMask)},
             {"depth", depth},
             {"slices", chunk.chunkSlices},
             {"pipeline_depth", chunk.maxActiveNetFlows},
             {"gf_kernel", gf::kernelName()}});
    });
    auto plan_copy = chunk.plan;
    auto done = std::move(chunk.onDone);
    active_.erase(it);
    if (done)
        done(plan_copy, now);
}

} // namespace repair
} // namespace chameleon
