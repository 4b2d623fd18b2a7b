#include "repair/executor.hh"

#include <algorithm>
#include <cmath>
#include <limits>

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
                if (it != active_.end()) {
                    tryLaunchEdge(it->second, edge_index);
                    return;
                }
                auto dit = dagActive_.find(id);
                if (dit != dagActive_.end())
                    tryLaunchDagEdge(dit->second, edge_index);
            });
    }
}

RepairId
RepairExecutor::launch(const ChunkRepairPlan &plan, ChunkDone on_done,
                       ChunkFail on_fail)
{
    plan.validate();
    CHAMELEON_ASSERT(plan.sources.size() <= 31,
                     "plan too wide for contribution masks");

    RepairId id = nextId_++;
    ChunkExec chunk;
    chunk.id = id;
    chunk.plan = plan;
    chunk.onDone = std::move(on_done);
    chunk.onFail = std::move(on_fail);
    chunk.launchTime = cluster_.simulator().now();
    const Bytes slice = config_.effectiveSliceSize();
    chunk.chunkSlices = sliceCount(config_.chunkSize, slice);

    const int nsrc = static_cast<int>(plan.sources.size());
    for (int i = 0; i < nsrc; ++i) {
        Edge edge;
        edge.source = i;
        edge.target = plan.sources[static_cast<std::size_t>(i)].parent;
        edge.slicesTotal = sliceCount(
            plan.sources[static_cast<std::size_t>(i)].fraction *
                config_.chunkSize,
            slice);
        edge.payload.assign(
            static_cast<std::size_t>(edge.slicesTotal), 0);
        chunk.edges.push_back(std::move(edge));
    }
    if (plan.combinable) {
        chunk.receivedMask.assign(
            static_cast<std::size_t>(nsrc),
            std::vector<Mask>(
                static_cast<std::size_t>(chunk.chunkSlices), 0));
        chunk.destMask.assign(
            static_cast<std::size_t>(chunk.chunkSlices), 0);
    }
    active_.emplace(id, std::move(chunk));

    // Defer initial launches through the event loop so launch() is
    // safe to call from any context.
    for (int i = 0; i < nsrc; ++i) {
        cluster_.simulator().scheduleAfter(
            0.0, [this, id, i] {
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
    return active_.count(id) > 0 || dagActive_.count(id) > 0;
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
    auto it = active_.find(id);
    if (it != active_.end())
        return it->second.plan;
    auto dit = dagActive_.find(id);
    CHAMELEON_ASSERT(dit != dagActive_.end(), "repair ", id,
                     " not active");
    return dit->second.plan;
}

std::vector<EdgeStatus>
RepairExecutor::edgeStatus(RepairId id) const
{
    const ChunkExec &chunk = get(id);
    std::vector<EdgeStatus> out;
    for (const Edge &edge : chunk.edges) {
        EdgeStatus st;
        st.source = edge.source;
        st.target = edge.target;
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
        if (edge.activeFlow != sim::kInvalidFlow &&
            edge.activeFlow != kLaunchingFlow) {
            cluster_.network().cancelFlow(edge.activeFlow);
            edge.activeFlow = sim::kInvalidFlow;
        }
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
    CHAMELEON_ASSERT(chunk.plan.combinable,
                     "cannot re-tune a non-combinable plan");
    CHAMELEON_ASSERT(source >= 0 &&
                     source < static_cast<int>(chunk.edges.size()),
                     "bad edge index ", source);
    Edge &edge = chunk.edges[static_cast<std::size_t>(source)];
    if (edge.target == kToDestination)
        return; // already uploads to the destination
    if (edge.delivered >= edge.slicesTotal)
        return; // finished; nothing to redirect

    int old_target = edge.target;
    // Abandon the in-flight slice (its bytes are wasted, as a real
    // re-tuned transfer's would be) and redirect the remainder.
    if (edge.activeFlow != sim::kInvalidFlow &&
        edge.activeFlow != kLaunchingFlow) {
        cluster_.network().cancelFlow(edge.activeFlow);
        edge.activeFlow = sim::kInvalidFlow;
        releaseSlots(edge);
    }
    edge.target = kToDestination;
    edge.retuned = true;
    // Keep the plan's bookkeeping in step so childrenOf() and later
    // validation reflect reality.
    chunk.plan.sources[static_cast<std::size_t>(source)].parent =
        kToDestination;

    // The old relay no longer waits for this child; it may have a
    // blocked slice ready to go, and this edge restarts toward the
    // destination.
    cluster_.simulator().scheduleAfter(
        0.0, [this, id, source, old_target] {
            auto it = active_.find(id);
            if (it == active_.end())
                return;
            tryLaunchEdge(it->second, source);
            tryLaunchEdge(it->second, old_target);
        });
}

double
RepairExecutor::destinationProgress(RepairId id) const
{
    const ChunkExec &chunk = get(id);
    if (chunk.plan.combinable) {
        const Mask full =
            (Mask(1) << chunk.plan.sources.size()) - 1;
        int complete = 0;
        for (Mask m : chunk.destMask)
            complete += (m == full);
        return static_cast<double>(complete) /
               static_cast<double>(chunk.chunkSlices);
    }
    int delivered = 0, total = 0;
    for (const Edge &edge : chunk.edges) {
        delivered += edge.delivered;
        total += edge.slicesTotal;
    }
    return total ? static_cast<double>(delivered) /
                       static_cast<double>(total)
                 : 0.0;
}

int
RepairExecutor::activeEdgesTouching(NodeId node) const
{
    int count = 0;
    for (const auto &[id, chunk] : active_) {
        if (chunk.paused)
            continue;
        for (const Edge &edge : chunk.edges) {
            if (edge.delivered >= edge.slicesTotal)
                continue;
            NodeId src = chunk.plan
                             .sources[static_cast<std::size_t>(
                                 edge.source)]
                             .node;
            NodeId tgt =
                edge.target == kToDestination
                    ? chunk.plan.destination
                    : chunk.plan
                          .sources[static_cast<std::size_t>(
                              edge.target)]
                          .node;
            if (src == node || tgt == node)
                ++count;
        }
    }
    for (const auto &[id, chunk] : dagActive_) {
        for (const DagEdge &edge : chunk.edges) {
            if (edge.delivered >= edge.slicesTotal || edge.local)
                continue;
            if (chunk.dag.vertex(edge.from).node == node ||
                chunk.dag.vertex(edge.to).node == node)
                ++count;
        }
    }
    return count;
}

bool
RepairExecutor::edgeDepsSatisfied(const ChunkExec &chunk,
                                  const Edge &edge) const
{
    if (!chunk.plan.combinable)
        return true; // direct transfers only
    const int s = edge.nextSlice;
    for (const Edge &child : chunk.edges) {
        if (child.target == edge.source && child.delivered <= s)
            return false;
    }
    return true;
}

void
RepairExecutor::tryLaunchEdge(ChunkExec &chunk, int edge_index)
{
    Edge &edge = chunk.edges[static_cast<std::size_t>(edge_index)];
    if (chunk.paused || edge.activeFlow != sim::kInvalidFlow ||
        edge.nextSlice >= edge.slicesTotal ||
        !edgeDepsSatisfied(chunk, edge)) {
        // Do not sit on slots while unable to send.
        if (edge.activeFlow == sim::kInvalidFlow)
            releaseSlots(edge);
        return;
    }

    const int s = edge.nextSlice;
    const auto &src =
        chunk.plan.sources[static_cast<std::size_t>(edge.source)];

    // Verify-on-read: the first slice launch is where the helper's
    // payload leaves its disk, so the checksum kernel runs here. A
    // corrupt helper aborts the whole chunk (deferred — the hook may
    // mutate stripe state and the abort destroys `chunk`).
    if (!edge.verified) {
        edge.verified = true;
        if (integrity_.verifySource &&
            !integrity_.verifySource(chunk.plan.stripe, src.chunk,
                                     src.node)) {
            metVerifyRejects_.add();
            const RepairId id = chunk.id;
            const NodeId bad = src.node;
            releaseSlots(edge);
            cluster_.simulator().scheduleAfter(
                0.0, [this, id, bad] {
                    if (active_.find(id) != active_.end())
                        abortChunk(id, bad);
                });
            return;
        }
    }

    const bool to_dest = (edge.target == kToDestination);
    const NodeId to = to_dest
                          ? chunk.plan.destination
                          : chunk.plan
                                .sources[static_cast<std::size_t>(
                                    edge.target)]
                                .node;
    // Per-node repair slots (bounded reconstruction streams).
    // Blocked edges wait for a release. An edge that already holds
    // its slots (continuing a task) skips acquisition.
    if (edge.holdUp == kInvalidNode) {
        auto &src_slots = slots_[static_cast<std::size_t>(src.node)];
        auto &dst_slots = slots_[static_cast<std::size_t>(to)];
        if (src_slots.upActive >= config_.nodeUploadSlots) {
            src_slots.upWaiters.emplace_back(chunk.id, edge_index);
            return;
        }
        if (dst_slots.downActive >= config_.nodeDownloadSlots) {
            dst_slots.downWaiters.emplace_back(chunk.id, edge_index);
            return;
        }
        src_slots.upActive += 1;
        dst_slots.downActive += 1;
        edge.holdUp = src.node;
        edge.holdDown = to;
    }

    if (chunk.plan.combinable) {
        edge.inFlightMask =
            ownMask(edge.source) |
            chunk.receivedMask[static_cast<std::size_t>(edge.source)]
                              [static_cast<std::size_t>(s)];
    }

    const RepairId id = chunk.id;
    edge.activeFlow = kLaunchingFlow;

    // Relay forwarding overhead: a combined (partially decoded)
    // slice costs CPU and turnaround time at the relay before it can
    // leave, and the relay's upload stream is occupied meanwhile.
    // Pure local slices (CR-style direct uploads) skip it.
    const bool combined =
        chunk.plan.combinable &&
        edge.inFlightMask != ownMask(edge.source);
    if (combined && config_.relayOverheadPerMiB > 0) {
        const Bytes total = src.fraction * config_.chunkSize;
        const Bytes slice = config_.effectiveSliceSize();
        const Bytes slice_bytes = std::min(
            slice, total - static_cast<double>(s) * slice);
        cluster_.simulator().scheduleAfter(
            config_.relayOverheadPerMiB * slice_bytes / units::MiB,
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
    const auto &src =
        chunk.plan.sources[static_cast<std::size_t>(edge.source)];
    // Recompute the target: a re-tune may have redirected the edge
    // while the relay was combining.
    const bool to_dest = (edge.target == kToDestination);
    const NodeId to = to_dest
                          ? chunk.plan.destination
                          : chunk.plan
                                .sources[static_cast<std::size_t>(
                                    edge.target)]
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

    // The source reads its local chunk slice from disk for every
    // upload; relays and the destination fold received contributions
    // in memory. The destination persists each *reconstructed* slice
    // exactly once via issueDestWrite(), so incoming transfers never
    // pass through its disk.
    auto path = cluster_.transferPath(src.node, to,
                                      /*read_disk=*/true,
                                      /*write_disk=*/false);
    const Bytes total = src.fraction * config_.chunkSize;
    const Bytes slice = config_.effectiveSliceSize();
    const Bytes bytes = std::min(
        slice, total - static_cast<double>(s) * slice);
    CHAMELEON_ASSERT(bytes > 0, "empty slice");
    // The no-dead-node invariant: crashes abort every affected chunk
    // synchronously, so a launch can never involve a down node.
    CHAMELEON_ASSERT(!cluster_.nodeDown(src.node),
                     "repair slice reads from dead node ", src.node);
    CHAMELEON_ASSERT(!cluster_.nodeDown(to),
                     "repair slice sends to dead node ", to);

    const RepairId id = chunk.id;
    sim::FlowId flow = cluster_.network().startFlow(
        std::move(path), bytes, sim::FlowTag::kRepair,
        [this, id, edge_index] { onSliceDelivered(id, edge_index); });
    edge.activeFlow = flow;
}

void
RepairExecutor::releaseHeldSlots(NodeId &hold_up, NodeId &hold_down)
{
    if (hold_up != kInvalidNode) {
        auto &s = slots_[static_cast<std::size_t>(hold_up)];
        CHAMELEON_ASSERT(s.upActive > 0, "slot underflow");
        s.upActive -= 1;
        wake(s.upWaiters);
        hold_up = kInvalidNode;
    }
    if (hold_down != kInvalidNode) {
        auto &s = slots_[static_cast<std::size_t>(hold_down)];
        CHAMELEON_ASSERT(s.downActive > 0, "slot underflow");
        s.downActive -= 1;
        wake(s.downWaiters);
        hold_down = kInvalidNode;
    }
}

void
RepairExecutor::releaseSlots(Edge &edge)
{
    releaseHeldSlots(edge.holdUp, edge.holdDown);
}

int
RepairExecutor::abortChunksTouching(NodeId node)
{
    // Collect first: aborting mutates active_ and fires callbacks
    // that may launch replacement chunks.
    std::vector<RepairId> doomed;
    for (const auto &[id, chunk] : active_) {
        if (chunk.plan.destination == node) {
            doomed.push_back(id);
            continue;
        }
        for (const Edge &edge : chunk.edges) {
            if (edge.delivered >= edge.slicesTotal)
                continue; // data already delivered; node not needed
            NodeId src = chunk.plan
                             .sources[static_cast<std::size_t>(
                                 edge.source)]
                             .node;
            NodeId tgt =
                edge.target == kToDestination
                    ? chunk.plan.destination
                    : chunk.plan
                          .sources[static_cast<std::size_t>(
                              edge.target)]
                          .node;
            if (src == node || tgt == node) {
                doomed.push_back(id);
                break;
            }
        }
    }
    for (RepairId id : doomed)
        abortChunk(id, node);

    std::vector<RepairId> dag_doomed;
    for (const auto &[id, chunk] : dagActive_) {
        if (chunk.dag.destination() == node) {
            dag_doomed.push_back(id);
            continue;
        }
        for (const DagEdge &edge : chunk.edges) {
            if (edge.delivered >= edge.slicesTotal)
                continue; // data already delivered; node not needed
            if (chunk.dag.vertex(edge.from).node == node ||
                chunk.dag.vertex(edge.to).node == node) {
                dag_doomed.push_back(id);
                break;
            }
        }
    }
    for (RepairId id : dag_doomed)
        abortDagChunk(id, node);
    return static_cast<int>(doomed.size() + dag_doomed.size());
}

bool
RepairExecutor::cancel(RepairId id)
{
    auto &net = cluster_.network();
    if (auto it = active_.find(id); it != active_.end()) {
        ChunkExec &chunk = it->second;
        for (Edge &edge : chunk.edges) {
            // kLaunchingFlow edges have a deferred beginSliceFlow in
            // the event queue; it no-ops once the chunk leaves
            // active_.
            if (edge.activeFlow != sim::kInvalidFlow &&
                edge.activeFlow != kLaunchingFlow)
                net.cancelFlow(edge.activeFlow);
            edge.activeFlow = sim::kInvalidFlow;
            releaseSlots(edge);
        }
        for (sim::FlowId write : chunk.destWrites)
            net.cancelFlow(write);
        active_.erase(it);
        return true;
    }
    if (auto it = dagActive_.find(id); it != dagActive_.end()) {
        DagExec &chunk = it->second;
        for (DagEdge &edge : chunk.edges) {
            if (edge.activeFlow != sim::kInvalidFlow &&
                edge.activeFlow != kLaunchingFlow)
                net.cancelFlow(edge.activeFlow);
            edge.activeFlow = sim::kInvalidFlow;
            releaseHeldSlots(edge.holdUp, edge.holdDown);
        }
        for (sim::FlowId write : chunk.destWrites)
            net.cancelFlow(write);
        dagActive_.erase(it);
        return true;
    }
    return false;
}

void
RepairExecutor::abortChunk(RepairId id, NodeId cause)
{
    auto it = active_.find(id);
    CHAMELEON_ASSERT(it != active_.end(), "abort of inactive repair ",
                     id);
    ChunkExec &chunk = it->second;
    auto &net = cluster_.network();
    for (Edge &edge : chunk.edges) {
        // kLaunchingFlow edges have a deferred beginSliceFlow in the
        // event queue; it no-ops once the chunk leaves active_.
        if (edge.activeFlow != sim::kInvalidFlow &&
            edge.activeFlow != kLaunchingFlow)
            net.cancelFlow(edge.activeFlow);
        edge.activeFlow = sim::kInvalidFlow;
        releaseSlots(edge);
    }
    // Finished writes are a no-op cancel (no solve), so no
    // flowActive pre-filter is needed.
    for (sim::FlowId write : chunk.destWrites)
        net.cancelFlow(write);
    metAborts_.add();
    const SimTime now = cluster_.simulator().now();
    CHAMELEON_TELEM(telemetry::tracer().instant(
        now, telemetry::kTrackFault, "fault", "abort",
        {{"stripe", chunk.plan.stripe},
         {"chunk", chunk.plan.failedChunk},
         {"dest", chunk.plan.destination},
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
    edge.activeFlow = sim::kInvalidFlow;
    edge.delivered = s + 1;
    edge.nextSlice = s + 1;
    metSlices_.add();
    // Task-queue semantics: the edge keeps its slots while it has
    // immediately sendable slices (a node works through an upload
    // task to completion, as the paper's per-node task model and the
    // dispatcher's serial-time estimates assume); it yields them
    // when done, paused, or blocked on a dependency.
    const bool continues = edge.nextSlice < edge.slicesTotal &&
                           !chunk.paused &&
                           edgeDepsSatisfied(chunk, edge);
    if (!continues)
        releaseSlots(edge);

    if (chunk.plan.combinable) {
        const Mask mask = edge.inFlightMask;
        edge.payload[static_cast<std::size_t>(s)] = mask;
        // The receiver folds this slice into its partial decode — a
        // mulAddRegionMulti's worth of codec work per delivery.
        {
            const auto &src = chunk.plan
                                  .sources[static_cast<std::size_t>(
                                      edge.source)];
            const Bytes total = src.fraction * config_.chunkSize;
            const Bytes slice = config_.effectiveSliceSize();
            const Bytes slice_bytes = std::min(
                slice, total - static_cast<double>(s) * slice);
            metCodecBytes_.add(static_cast<int64_t>(slice_bytes));
            if (mask != ownMask(edge.source))
                metCombinedSlices_.add();
        }
        if (edge.target == kToDestination) {
            Mask &dm = chunk.destMask[static_cast<std::size_t>(s)];
            CHAMELEON_ASSERT((dm & mask) == 0,
                             "slice ", s, " of repair ", id,
                             " delivered a duplicate contribution");
            dm |= mask;
            const Mask full =
                (Mask(1) << chunk.plan.sources.size()) - 1;
            if (dm == full) {
                // Slice fully reconstructed: persist it.
                const Bytes slice = config_.effectiveSliceSize();
                Bytes bytes = std::min(
                    slice, config_.chunkSize -
                               static_cast<double>(s) * slice);
                issueDestWrite(chunk, bytes);
            }
        } else {
            chunk.receivedMask[static_cast<std::size_t>(edge.target)]
                              [static_cast<std::size_t>(s)] |= mask;
        }
    }

    // Defer follow-up launches so this callback stays re-entrant
    // safe with respect to the flow network's dispatch loop.
    const int target = edge.target;
    cluster_.simulator().scheduleAfter(0.0, [this, id, edge_index,
                                             target] {
        auto lit = active_.find(id);
        if (lit == active_.end())
            return;
        tryLaunchEdge(lit->second, edge_index);
        if (target != kToDestination)
            tryLaunchEdge(lit->second, target);
    });

    checkChunkDone(id);
}

void
RepairExecutor::issueDestWrite(ChunkExec &chunk, Bytes bytes)
{
    CHAMELEON_ASSERT(!cluster_.nodeDown(chunk.plan.destination),
                     "destination write on dead node ",
                     chunk.plan.destination);
    chunk.writesIssued += 1;
    const RepairId id = chunk.id;
    sim::FlowId flow = cluster_.network().startFlow(
        {cluster_.disk(chunk.plan.destination)}, bytes,
        sim::FlowTag::kRepair, [this, id] {
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
    if (!chunk.plan.combinable && chunk.writesIssued == 0)
        issueDestWrite(chunk, config_.chunkSize);
    if (chunk.writesDone < chunk.writesIssued ||
        chunk.writesIssued == 0)
        return;
    if (chunk.plan.combinable) {
        // Every slice must have exactly one contribution from every
        // source — the invariant that re-tuning must preserve.
        const Mask full = (Mask(1) << chunk.plan.sources.size()) - 1;
        for (int s = 0; s < chunk.chunkSlices; ++s) {
            CHAMELEON_ASSERT(
                chunk.destMask[static_cast<std::size_t>(s)] == full,
                "slice ", s, " of repair ", id,
                " is missing contributions: mask ",
                chunk.destMask[static_cast<std::size_t>(s)], " != ",
                full);
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
    CHAMELEON_TELEM(telemetry::tracer().complete(
        chunk.launchTime, now - chunk.launchTime,
        telemetry::kTrackExecutor, "repair", "chunk",
        {{"stripe", chunk.plan.stripe},
         {"chunk", chunk.plan.failedChunk},
         {"dest", chunk.plan.destination},
         {"sources", chunk.plan.sources.size()},
         {"gf_kernel", gf::kernelName()}}));
    auto plan_copy = chunk.plan;
    auto done = std::move(chunk.onDone);
    active_.erase(it);
    if (done)
        done(plan_copy, now);
}

RepairId
RepairExecutor::launchDag(const dag::EcDag &d,
                          const ChunkRepairPlan &plan,
                          ChunkDone on_done, ChunkFail on_fail)
{
    d.validate();
    const int nsrc = static_cast<int>(d.sources().size());
    CHAMELEON_ASSERT(nsrc >= 1 && nsrc <= 31,
                     "DAG too wide for contribution tracking");
    CHAMELEON_ASSERT(!d.vertex(d.root()).isLeaf(),
                     "DAG root must combine at least one input");

    RepairId id = nextId_++;
    DagExec chunk;
    chunk.id = id;
    chunk.dag = d;
    chunk.plan = plan;
    chunk.onDone = std::move(on_done);
    chunk.onFail = std::move(on_fail);
    chunk.launchTime = cluster_.simulator().now();
    const Bytes slice = config_.effectiveSliceSize();
    chunk.chunkSlices = sliceCount(config_.chunkSize, slice);

    const int nv = d.vertexCount();
    chunk.inEdges.assign(static_cast<std::size_t>(nv), {});
    chunk.outEdges.assign(static_cast<std::size_t>(nv), {});
    for (dag::VertexId v = 0; v < nv; ++v) {
        const auto &vert = d.vertex(v);
        for (dag::VertexId f : vert.in) {
            const auto &fv = d.vertex(f);
            DagEdge edge;
            edge.from = f;
            edge.to = v;
            edge.fromLeaf = fv.isLeaf();
            const double fraction =
                edge.fromLeaf
                    ? d.sources()[static_cast<std::size_t>(fv.source)]
                          .fraction
                    : 1.0;
            edge.slicesTotal =
                sliceCount(fraction * config_.chunkSize, slice);
            edge.local = (fv.node == vert.node);
            const int ei = static_cast<int>(chunk.edges.size());
            chunk.edges.push_back(edge);
            chunk.inEdges[static_cast<std::size_t>(v)].push_back(ei);
            chunk.outEdges[static_cast<std::size_t>(f)].push_back(ei);
        }
    }
    const int nedges = static_cast<int>(chunk.edges.size());
    dagActive_.emplace(id, std::move(chunk));

    // Defer initial launches through the event loop so launchDag()
    // is safe to call from any context.
    for (int i = 0; i < nedges; ++i) {
        cluster_.simulator().scheduleAfter(0.0, [this, id, i] {
            auto it = dagActive_.find(id);
            if (it != dagActive_.end())
                tryLaunchDagEdge(it->second, i);
        });
    }
    return id;
}

int
RepairExecutor::dagReadySlices(const DagExec &chunk,
                               dag::VertexId v) const
{
    const auto &vert = chunk.dag.vertex(v);
    // A leaf's slices all sit on disk from the start; an internal
    // vertex holds slice s only once every input delivered slice s.
    if (vert.isLeaf())
        return std::numeric_limits<int>::max();
    int ready = std::numeric_limits<int>::max();
    for (int ei : chunk.inEdges[static_cast<std::size_t>(v)])
        ready = std::min(
            ready, chunk.edges[static_cast<std::size_t>(ei)].delivered);
    return ready;
}

Bytes
RepairExecutor::dagEdgeSliceBytes(const DagExec &chunk,
                                  const DagEdge &edge, int s) const
{
    double fraction = 1.0;
    if (edge.fromLeaf) {
        const auto &fv = chunk.dag.vertex(edge.from);
        fraction = chunk.dag
                       .sources()[static_cast<std::size_t>(fv.source)]
                       .fraction;
    }
    const Bytes total = fraction * config_.chunkSize;
    const Bytes slice = config_.effectiveSliceSize();
    return std::min(slice, total - static_cast<double>(s) * slice);
}

void
RepairExecutor::tryLaunchDagEdge(DagExec &chunk, int edge_index)
{
    DagEdge &edge = chunk.edges[static_cast<std::size_t>(edge_index)];
    if (edge.activeFlow != sim::kInvalidFlow ||
        edge.nextSlice >= edge.slicesTotal ||
        dagReadySlices(chunk, edge.from) <= edge.nextSlice) {
        // Do not sit on slots while unable to send.
        if (edge.activeFlow == sim::kInvalidFlow)
            releaseHeldSlots(edge.holdUp, edge.holdDown);
        return;
    }

    const int s = edge.nextSlice;
    const NodeId from_node = chunk.dag.vertex(edge.from).node;
    const NodeId to_node = chunk.dag.vertex(edge.to).node;
    const RepairId id = chunk.id;

    // Verify-on-read for leaf edges: the first slice is where the
    // helper chunk's payload is read off disk, local or not.
    if (edge.fromLeaf && !edge.verified) {
        edge.verified = true;
        if (integrity_.verifySource) {
            const auto &leaf =
                chunk.dag.sources()[static_cast<std::size_t>(
                    chunk.dag.vertex(edge.from).source)];
            if (!integrity_.verifySource(chunk.plan.stripe,
                                         leaf.chunk, leaf.node)) {
                metVerifyRejects_.add();
                const NodeId bad = leaf.node;
                releaseHeldSlots(edge.holdUp, edge.holdDown);
                cluster_.simulator().scheduleAfter(
                    0.0, [this, id, bad] {
                        if (dagActive_.count(id))
                            abortDagChunk(id, bad);
                    });
                return;
            }
        }
    }

    if (edge.local) {
        // Same-node hop, no network slots: a leaf input is a local
        // disk read (slice by slice, sharing the disk with every
        // other flow); an internal input is an in-memory handoff.
        edge.activeFlow = kLaunchingFlow;
        if (edge.fromLeaf) {
            CHAMELEON_ASSERT(!cluster_.nodeDown(from_node),
                             "repair slice reads from dead node ",
                             from_node);
            const Bytes bytes = dagEdgeSliceBytes(chunk, edge, s);
            CHAMELEON_ASSERT(bytes > 0, "empty slice");
            edge.sliceStart = cluster_.simulator().now();
            edge.activeFlow = cluster_.network().startFlow(
                {cluster_.disk(from_node)}, bytes,
                sim::FlowTag::kRepair,
                sim::FlowLabel{id, edge.from, s},
                [this, id, edge_index] {
                    onDagSliceDelivered(id, edge_index);
                });
        } else {
            cluster_.simulator().scheduleAfter(
                0.0, [this, id, edge_index] {
                    // No-op if a crash aborted the chunk meanwhile.
                    if (dagActive_.count(id))
                        onDagSliceDelivered(id, edge_index);
                });
        }
        return;
    }

    // Per-node repair slots (bounded reconstruction streams), with
    // the same task-continuity semantics as tree edges.
    if (edge.holdUp == kInvalidNode) {
        auto &src_slots = slots_[static_cast<std::size_t>(from_node)];
        auto &dst_slots = slots_[static_cast<std::size_t>(to_node)];
        if (src_slots.upActive >= config_.nodeUploadSlots) {
            src_slots.upWaiters.emplace_back(chunk.id, edge_index);
            return;
        }
        if (dst_slots.downActive >= config_.nodeDownloadSlots) {
            dst_slots.downWaiters.emplace_back(chunk.id, edge_index);
            return;
        }
        src_slots.upActive += 1;
        dst_slots.downActive += 1;
        edge.holdUp = from_node;
        edge.holdDown = to_node;
    }

    edge.activeFlow = kLaunchingFlow;

    // An internal vertex's upload carries a partial decode: GF
    // combination and turnaround cost at the relay before the slice
    // can leave. Leaf uploads (raw chunks) skip it, exactly like
    // direct transfers on the tree path.
    if (!edge.fromLeaf && config_.relayOverheadPerMiB > 0) {
        const Bytes slice_bytes = dagEdgeSliceBytes(chunk, edge, s);
        cluster_.simulator().scheduleAfter(
            config_.relayOverheadPerMiB * slice_bytes / units::MiB,
            [this, id, edge_index] {
                auto it = dagActive_.find(id);
                if (it != dagActive_.end())
                    beginDagSliceFlow(it->second, edge_index);
            });
    } else {
        beginDagSliceFlow(chunk, edge_index);
    }
}

void
RepairExecutor::beginDagSliceFlow(DagExec &chunk, int edge_index)
{
    DagEdge &edge = chunk.edges[static_cast<std::size_t>(edge_index)];
    CHAMELEON_ASSERT(edge.activeFlow == kLaunchingFlow,
                     "beginDagSliceFlow on an edge with no pending "
                     "slice");
    const int s = edge.nextSlice;
    const NodeId from_node = chunk.dag.vertex(edge.from).node;
    const NodeId to_node = chunk.dag.vertex(edge.to).node;
    // A leaf's upload reads the helper chunk from disk in-path; an
    // internal vertex forwards a partial decode held in memory.
    auto path = cluster_.transferPath(from_node, to_node,
                                      /*read_disk=*/edge.fromLeaf,
                                      /*write_disk=*/false);
    const Bytes bytes = dagEdgeSliceBytes(chunk, edge, s);
    CHAMELEON_ASSERT(bytes > 0, "empty slice");
    // The no-dead-node invariant: crashes abort every affected chunk
    // synchronously, so a launch can never involve a down node.
    CHAMELEON_ASSERT(!cluster_.nodeDown(from_node),
                     "repair slice reads from dead node ", from_node);
    CHAMELEON_ASSERT(!cluster_.nodeDown(to_node),
                     "repair slice sends to dead node ", to_node);

    const RepairId id = chunk.id;
    edge.sliceStart = cluster_.simulator().now();
    chunk.activeNetFlows += 1;
    chunk.maxActiveNetFlows =
        std::max(chunk.maxActiveNetFlows, chunk.activeNetFlows);
    edge.activeFlow = cluster_.network().startFlow(
        std::move(path), bytes, sim::FlowTag::kRepair,
        sim::FlowLabel{id, edge.from, s}, [this, id, edge_index] {
            onDagSliceDelivered(id, edge_index);
        });
}

void
RepairExecutor::onDagSliceDelivered(RepairId id, int edge_index)
{
    auto it = dagActive_.find(id);
    CHAMELEON_ASSERT(it != dagActive_.end(),
                     "slice delivery for inactive repair ", id);
    DagExec &chunk = it->second;
    DagEdge &edge = chunk.edges[static_cast<std::size_t>(edge_index)];

    const int s = edge.nextSlice;
    const Bytes bytes = dagEdgeSliceBytes(chunk, edge, s);
    const SimTime now = cluster_.simulator().now();
    edge.activeFlow = sim::kInvalidFlow;
    edge.delivered = s + 1;
    edge.nextSlice = s + 1;
    metDagSlices_.add();
    metSlices_.add();
    if (edge.local) {
        metDagLocalSlices_.add();
    } else {
        chunk.activeNetFlows -= 1;
        chunk.netFlowSeconds += now - edge.sliceStart;
        // Task-queue semantics: keep the slots while the next slice
        // is immediately sendable, yield when done or blocked.
        const bool continues =
            edge.nextSlice < edge.slicesTotal &&
            dagReadySlices(chunk, edge.from) > edge.nextSlice;
        if (!continues)
            releaseHeldSlots(edge.holdUp, edge.holdDown);
    }
    // The consuming vertex folds this slice into its partial result
    // (a mulAddRegionMulti's worth of codec work per delivery).
    if (chunk.dag.combinable) {
        metCodecBytes_.add(static_cast<int64_t>(bytes));
        if (!edge.fromLeaf)
            metCombinedSlices_.add();
    }

    // Combinable root: a slice is reconstructed once every root
    // input delivered it; persist slices as the watermark rises.
    const dag::VertexId to = edge.to;
    if (to == chunk.dag.root() && chunk.dag.combinable) {
        int watermark = std::numeric_limits<int>::max();
        for (int ei : chunk.inEdges[static_cast<std::size_t>(to)])
            watermark = std::min(
                watermark,
                chunk.edges[static_cast<std::size_t>(ei)].delivered);
        const Bytes slice = config_.effectiveSliceSize();
        while (chunk.destWatermark < watermark) {
            const int ws = chunk.destWatermark++;
            issueDagDestWrite(
                chunk,
                std::min(slice, config_.chunkSize -
                                    static_cast<double>(ws) * slice));
        }
    }

    // Defer follow-up launches so this callback stays re-entrant
    // safe with respect to the flow network's dispatch loop.
    cluster_.simulator().scheduleAfter(
        0.0, [this, id, edge_index, to] {
            auto lit = dagActive_.find(id);
            if (lit == dagActive_.end())
                return;
            tryLaunchDagEdge(lit->second, edge_index);
            const auto &out =
                lit->second.outEdges[static_cast<std::size_t>(to)];
            for (int oe : out)
                tryLaunchDagEdge(lit->second, oe);
        });

    checkDagChunkDone(id);
}

void
RepairExecutor::issueDagDestWrite(DagExec &chunk, Bytes bytes)
{
    const NodeId dest = chunk.dag.destination();
    CHAMELEON_ASSERT(!cluster_.nodeDown(dest),
                     "destination write on dead node ", dest);
    chunk.writesIssued += 1;
    const RepairId id = chunk.id;
    sim::FlowId flow = cluster_.network().startFlow(
        {cluster_.disk(dest)}, bytes, sim::FlowTag::kRepair,
        [this, id] {
            auto it = dagActive_.find(id);
            CHAMELEON_ASSERT(it != dagActive_.end(),
                             "write completion for inactive repair");
            it->second.writesDone += 1;
            checkDagChunkDone(id);
        });
    // Track the write so a destination crash can invalidate it;
    // completed writes are pruned lazily at the next issue/abort.
    std::erase_if(chunk.destWrites, [this](sim::FlowId f) {
        return !cluster_.network().flowActive(f);
    });
    chunk.destWrites.push_back(flow);
}

void
RepairExecutor::checkDagChunkDone(RepairId id)
{
    auto it = dagActive_.find(id);
    if (it == dagActive_.end())
        return;
    DagExec &chunk = it->second;
    for (const DagEdge &edge : chunk.edges) {
        if (edge.delivered < edge.slicesTotal)
            return;
    }
    // Non-combinable codes reconstruct from sub-chunks after all
    // transfers arrive, then persist the whole chunk.
    if (!chunk.dag.combinable && chunk.writesIssued == 0)
        issueDagDestWrite(chunk, config_.chunkSize);
    if (chunk.writesDone < chunk.writesIssued ||
        chunk.writesIssued == 0)
        return;
    if (chunk.dag.combinable) {
        // Every slice of the reconstructed chunk must have been
        // persisted exactly once via the root watermark.
        CHAMELEON_ASSERT(chunk.destWatermark == chunk.chunkSlices,
                         "repair ", id, " persisted ",
                         chunk.destWatermark, " of ",
                         chunk.chunkSlices, " slices");
    }
    // Verify-after-decode (see checkChunkDone for the deferral
    // rationale).
    if (integrity_.verifyDecoded) {
        const NodeId bad = integrity_.verifyDecoded(chunk.plan);
        if (bad != kInvalidNode) {
            metDecodeRejects_.add();
            cluster_.simulator().scheduleAfter(
                0.0, [this, id, bad] {
                    if (dagActive_.count(id))
                        abortDagChunk(id, bad);
                });
            return;
        }
    }
    ++completedChunks_;
    metChunks_.add();
    metDagChunks_.add();
    metDagPipelineDepth_.observe(
        static_cast<double>(chunk.maxActiveNetFlows));
    const SimTime now = cluster_.simulator().now();
    const SimTime makespan = now - chunk.launchTime;
    if (makespan > 0)
        metDagOccupancy_.observe(chunk.netFlowSeconds / makespan);
    CHAMELEON_TELEM(telemetry::tracer().complete(
        chunk.launchTime, makespan, telemetry::kTrackExecutor,
        "repair", "chunk",
        {{"stripe", chunk.dag.stripe},
         {"chunk", chunk.dag.failedChunk},
         {"dest", chunk.dag.destination()},
         {"sources", chunk.dag.sources().size()},
         {"dag_depth", chunk.dag.depth()},
         {"slices", chunk.chunkSlices},
         {"pipeline_depth", chunk.maxActiveNetFlows},
         {"gf_kernel", gf::kernelName()}}));
    auto plan_copy = chunk.plan;
    auto done = std::move(chunk.onDone);
    dagActive_.erase(it);
    if (done)
        done(plan_copy, now);
}

void
RepairExecutor::abortDagChunk(RepairId id, NodeId cause)
{
    auto it = dagActive_.find(id);
    CHAMELEON_ASSERT(it != dagActive_.end(),
                     "abort of inactive repair ", id);
    DagExec &chunk = it->second;
    auto &net = cluster_.network();
    for (DagEdge &edge : chunk.edges) {
        // kLaunchingFlow edges have a deferred continuation in the
        // event queue; it no-ops once the chunk leaves dagActive_.
        if (edge.activeFlow != sim::kInvalidFlow &&
            edge.activeFlow != kLaunchingFlow)
            net.cancelFlow(edge.activeFlow);
        edge.activeFlow = sim::kInvalidFlow;
        releaseHeldSlots(edge.holdUp, edge.holdDown);
    }
    // Finished writes are a no-op cancel (no solve), so no
    // flowActive pre-filter is needed.
    for (sim::FlowId write : chunk.destWrites)
        net.cancelFlow(write);
    metAborts_.add();
    const SimTime now = cluster_.simulator().now();
    CHAMELEON_TELEM(telemetry::tracer().instant(
        now, telemetry::kTrackFault, "fault", "abort",
        {{"stripe", chunk.dag.stripe},
         {"chunk", chunk.dag.failedChunk},
         {"dest", chunk.dag.destination()},
         {"cause_node", cause}}));
    auto plan_copy = chunk.plan;
    auto on_fail = std::move(chunk.onFail);
    dagActive_.erase(it);
    if (on_fail)
        on_fail(plan_copy, cause, now);
}

} // namespace repair
} // namespace chameleon
