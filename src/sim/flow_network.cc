#include "sim/flow_network.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace sim {

namespace {

/** Bytes below which a flow counts as finished (guards FP error). */
constexpr Bytes kByteEps = 1e-3;

constexpr Rate kInfRate = std::numeric_limits<Rate>::infinity();

} // namespace

FlowNetwork::FlowNetwork(Simulator &sim, SimTime usage_window)
    : sim_(sim), usageWindow_(usage_window),
      flowsStarted_(telemetry::metrics().counter("sim.flows.started")),
      flowsCompleted_(
          telemetry::metrics().counter("sim.flows.completed")),
      flowsCancelled_(
          telemetry::metrics().counter("sim.flows.cancelled")),
      flowsActive_(telemetry::metrics().gauge("sim.flows.active")),
      rateRecomputes_(
          telemetry::metrics().counter("sim.rate_recomputes")),
      rateRecomputeVisits_(telemetry::metrics().counter(
          "sim.rate_recompute_flow_visits")),
      dirtyResourceVisits_(telemetry::metrics().counter(
          "sim.solver.dirty_resource_visits")),
      capacityChanges_(
          telemetry::metrics().counter("sim.capacity_changes"))
{
    if (const char *env =
            std::getenv("CHAMELEON_SIM_REFERENCE_SOLVER"))
        referenceSolver_ = env[0] != '\0' && env[0] != '0';
}

void
FlowNetwork::traceFlowSpan(const Flow &flow, SimTime end,
                           bool cancelled)
{
    std::string path;
    for (ResourceId r : flow.path) {
        if (!path.empty())
            path.push_back('|');
        path += resources_[static_cast<std::size_t>(r)].name;
    }
    // Scrub reads share the repair track: both are background
    // streams contending with foreground traffic.
    const auto track = flow.tag == FlowTag::kForeground
                           ? telemetry::kTrackForeground
                           : telemetry::kTrackRepairFlow;
    if (!flow.label.empty()) {
        // Labeled (per-slice) flows carry their provenance so trace
        // consumers can reassemble a chunk's pipeline occupancy.
        telemetry::tracer().complete(
            flow.start, end - flow.start, track, "sim.flow", "flow",
            {{"bytes", flow.size},
             {"path", std::move(path)},
             {"cancelled", cancelled ? 1 : 0},
             {"group", flow.label.group},
             {"vertex", flow.label.vertex},
             {"slice", flow.label.slice}});
        return;
    }
    telemetry::tracer().complete(
        flow.start, end - flow.start, track, "sim.flow", "flow",
        {{"bytes", flow.size},
         {"path", std::move(path)},
         {"cancelled", cancelled ? 1 : 0}});
}

ResourceId
FlowNetwork::addResource(std::string name, Rate capacity)
{
    CHAMELEON_ASSERT(capacity >= 0, "negative capacity");
    // The kept dirty set points into resources_, which may move.
    dirtyRes_.clear();
    dirtyConnected_ = false;
    resources_.emplace_back(std::move(name), capacity, usageWindow_);
    return static_cast<ResourceId>(resources_.size() - 1);
}

const std::string &
FlowNetwork::resourceName(ResourceId id) const
{
    CHAMELEON_ASSERT(id >= 0 &&
                     static_cast<std::size_t>(id) < resources_.size(),
                     "bad resource id ", id);
    return resources_[static_cast<std::size_t>(id)].name;
}

Rate
FlowNetwork::capacity(ResourceId id) const
{
    CHAMELEON_ASSERT(id >= 0 &&
                     static_cast<std::size_t>(id) < resources_.size(),
                     "bad resource id ", id);
    return resources_[static_cast<std::size_t>(id)].capacity;
}

void
FlowNetwork::setCapacity(ResourceId id, Rate capacity)
{
    CHAMELEON_ASSERT(id >= 0 &&
                     static_cast<std::size_t>(id) < resources_.size(),
                     "bad resource id ", id);
    CHAMELEON_ASSERT(capacity >= 0, "negative capacity");
    resources_[static_cast<std::size_t>(id)].capacity = capacity;
    capacityChanges_.add();
    CHAMELEON_TELEM(telemetry::tracer().instant(
        sim_.now(), telemetry::kTrackSim, "sim", "capacity-change",
        {{"resource",
          resources_[static_cast<std::size_t>(id)].name},
         {"capacity", capacity}}));
    seedScratch_.assign(1, id);
    resolve(seedScratch_);
}

FlowId
FlowNetwork::startFlow(std::vector<ResourceId> path, Bytes size,
                       FlowTag tag, Callback on_complete)
{
    return startFlow(std::move(path), size, tag, FlowLabel{},
                     std::move(on_complete));
}

FlowId
FlowNetwork::startFlow(std::vector<ResourceId> path, Bytes size,
                       FlowTag tag, const FlowLabel &label,
                       Callback on_complete)
{
    CHAMELEON_ASSERT(size >= 0, "negative flow size");
    for (std::size_t i = 0; i < path.size(); ++i) {
        CHAMELEON_ASSERT(path[i] >= 0 &&
                         static_cast<std::size_t>(path[i]) <
                             resources_.size(),
                         "bad resource in path");
        for (std::size_t j = i + 1; j < path.size(); ++j)
            CHAMELEON_ASSERT(path[i] != path[j],
                             "duplicate resource in flow path");
    }

    FlowId id = nextFlowId_++;
    if (size <= kByteEps || path.empty()) {
        // Degenerate flow: completes immediately. No rate can
        // change, so skip the solve entirely.
        if (on_complete)
            pendingCallbacks_.push_back(std::move(on_complete));
        dispatchPending();
        return id;
    }

    Flow flow;
    flow.id = id;
    flow.path = std::move(path);
    flow.remaining = size;
    flow.tag = tag;
    flow.onComplete = std::move(on_complete);
    flow.start = sim_.now();
    flow.size = size;
    flow.label = label;
    flow.syncTime = sim_.now();
    // Insert first, then attach: the active lists hold pointers into
    // the map's (stable) nodes.
    Flow &stored = flows_.emplace(id, std::move(flow)).first->second;
    for (ResourceId r : stored.path)
        resources_[static_cast<std::size_t>(r)].active.push_back(
            &stored);
    stored.livePos = static_cast<uint32_t>(live_.size());
    live_.push_back(&stored);
    heapUpdate(&stored); // eta = never until the solve rates it
    flowsStarted_.add();
    flowsActive_.set(static_cast<double>(flows_.size()));
    resolve(stored.path, &stored);
    return id;
}

Bytes
FlowNetwork::cancelFlow(FlowId id)
{
    auto it = flows_.find(id);
    if (it == flows_.end())
        return 0.0; // no-op: no rate can change, skip the solve
    Flow &flow = it->second;
    const SimTime end = integrateFlow(flow, sim_.now(), flow.rate);
    seedScratch_.assign(flow.path.begin(), flow.path.end());
    if (flow.rate > 0 && flow.remaining <= kByteEps) {
        // The last byte arrived at (or before) this instant; the
        // completion event just hasn't fired yet. Complete, don't
        // cancel.
        completeFlow(flow, end);
        resolve(seedScratch_);
        return 0.0;
    }
    const Bytes remaining = flow.remaining;
    flowsCancelled_.add();
    CHAMELEON_TELEM(traceFlowSpan(flow, sim_.now(),
                                  /*cancelled=*/true));
    detachFlow(flow);
    flows_.erase(it);
    flowsActive_.set(static_cast<double>(flows_.size()));
    resolve(seedScratch_);
    return remaining;
}

bool
FlowNetwork::flowActive(FlowId id) const
{
    return flows_.count(id) > 0;
}

Bytes
FlowNetwork::flowRemaining(FlowId id) const
{
    auto it = flows_.find(id);
    CHAMELEON_ASSERT(it != flows_.end(), "flow ", id, " not active");
    // Integrate-on-read: progress is tracked lazily, so bring this
    // flow exactly up to now (rates are unaffected).
    auto *self = const_cast<FlowNetwork *>(this);
    auto &flow = const_cast<Flow &>(it->second);
    self->integrateFlow(flow, sim_.now(), flow.rate);
    return flow.remaining;
}

Rate
FlowNetwork::flowRate(FlowId id) const
{
    auto it = flows_.find(id);
    CHAMELEON_ASSERT(it != flows_.end(), "flow ", id, " not active");
    return it->second.rate;
}

void
FlowNetwork::sync()
{
    const SimTime now = sim_.now();
    seedScratch_.clear();
    bool completed = false;
    for (auto it = flows_.begin(); it != flows_.end();) {
        Flow &flow = it->second;
        ++it; // completeFlow erases the current node
        const SimTime end = integrateFlow(flow, now, flow.rate);
        if (flow.rate > 0 && flow.remaining <= kByteEps) {
            // Finished exactly at this instant; fire its callback
            // now rather than waiting for the completion event.
            for (ResourceId r : flow.path)
                seedScratch_.push_back(r);
            completed = true;
            completeFlow(flow, end);
        }
    }
    if (completed)
        resolve(seedScratch_);
}

Bytes
FlowNetwork::taggedBytes(ResourceId id, FlowTag tag) const
{
    CHAMELEON_ASSERT(id >= 0 &&
                     static_cast<std::size_t>(id) < resources_.size(),
                     "bad resource id ", id);
    return resources_[static_cast<std::size_t>(id)]
        .taggedBytes[static_cast<int>(tag)];
}

const WindowedUsage &
FlowNetwork::usage(ResourceId id, FlowTag tag) const
{
    CHAMELEON_ASSERT(id >= 0 &&
                     static_cast<std::size_t>(id) < resources_.size(),
                     "bad resource id ", id);
    return resources_[static_cast<std::size_t>(id)]
        .usage[static_cast<int>(tag)];
}

Rate
FlowNetwork::currentTagRate(ResourceId id, FlowTag tag) const
{
    CHAMELEON_ASSERT(id >= 0 &&
                     static_cast<std::size_t>(id) < resources_.size(),
                     "bad resource id ", id);
    return resources_[static_cast<std::size_t>(id)]
        .tagRate[static_cast<int>(tag)];
}

std::size_t
FlowNetwork::activeFlowsOn(ResourceId id) const
{
    CHAMELEON_ASSERT(id >= 0 &&
                     static_cast<std::size_t>(id) < resources_.size(),
                     "bad resource id ", id);
    return resources_[static_cast<std::size_t>(id)].active.size();
}

SimTime
FlowNetwork::integrateFlow(Flow &flow, SimTime now, Rate rate)
{
    CHAMELEON_ASSERT(now >= flow.syncTime, "time went backwards");
    const SimTime dt = now - flow.syncTime;
    if (dt <= 0 || rate <= 0) {
        flow.syncTime = now;
        return now;
    }
    const Bytes delivered = std::min(rate * dt, flow.remaining);
    const SimTime end = flow.syncTime + delivered / rate;
    flow.remaining -= delivered;
    const int tag = static_cast<int>(flow.tag);
    for (ResourceId r : flow.path) {
        auto &res = resources_[static_cast<std::size_t>(r)];
        res.taggedBytes[tag] += delivered;
        res.usage[tag].addTransfer(flow.syncTime, end, delivered);
    }
    flow.syncTime = now;
    return end;
}

void
FlowNetwork::completeFlow(Flow &flow, SimTime end)
{
    CHAMELEON_TELEM(traceFlowSpan(flow, end, /*cancelled=*/false));
    if (flow.onComplete)
        pendingCallbacks_.push_back(std::move(flow.onComplete));
    flowsCompleted_.add();
    const FlowId id = flow.id;
    detachFlow(flow);
    flows_.erase(id);
    flowsActive_.set(static_cast<double>(flows_.size()));
}

void
FlowNetwork::detachFlow(Flow &flow)
{
    heapRemove(&flow);
    for (ResourceId r : flow.path) {
        auto &vec = resources_[static_cast<std::size_t>(r)].active;
        auto it = std::find(vec.begin(), vec.end(), &flow);
        CHAMELEON_ASSERT(it != vec.end(), "flow missing from resource");
        *it = vec.back();
        vec.pop_back();
    }
    // Per-tag rate sums of the touched resources are refreshed by the
    // resolve() that always follows a detach (the flow's path seeds
    // the dirty set).
    // The kept dirty set outlives the flow: drop its entry.
    if (flow.dirtyPos < dirtyFlows_.size() &&
        dirtyFlows_[flow.dirtyPos] == &flow) {
        dirtyFlows_[flow.dirtyPos] = nullptr;
        ++dirtyDropped_;
    }
    live_[flow.livePos] = nullptr;
    if (++liveDead_ * 2 < live_.size())
        return;
    uint32_t n = 0;
    for (Flow *f : live_) {
        if (f == nullptr)
            continue;
        f->livePos = n;
        live_[n++] = f;
    }
    live_.resize(n);
    liveDead_ = 0;
}

void
FlowNetwork::orderDirtySets(uint64_t epoch)
{
    // The fill scans resources in index order so its tie-break
    // matches the reference solver's bit-for-bit, and the apply pass
    // visits flows in id order so per-resource byte counters are
    // summed in the same order in both modes. A dense set is read off
    // the containers that already hold that order (resources_, and
    // live_ with its dead entries); a sparse one is cheaper to sort.
    // Either way the order is the same.
    if (dirtyRes_.size() * 4 >= resources_.size()) {
        dirtyRes_.clear();
        for (Resource &res : resources_)
            if (res.mark == epoch)
                dirtyRes_.push_back(&res);
    } else {
        // Pointer order == index order: resources_ is contiguous.
        std::sort(dirtyRes_.begin(), dirtyRes_.end());
    }
    if (dirtyFlows_.size() * 4 >= live_.size()) {
        dirtyFlows_.clear();
        for (Flow *f : live_)
            if (f != nullptr && f->mark == epoch)
                dirtyFlows_.push_back(f);
    } else {
        std::sort(dirtyFlows_.begin(), dirtyFlows_.end(),
                  [](const Flow *a, const Flow *b) {
                      return a->id < b->id;
                  });
    }
}

bool
FlowNetwork::patchDirtySets(const std::vector<ResourceId> &seeds,
                            Flow *started, uint64_t epoch)
{
    // The kept set is the union of the components that held the last
    // solve's seeds; it is patchable only while its busy resources
    // form one component C. Every branch below returns the union of
    // the components that hold `seeds` now, which is what the BFS
    // would find, in the same order.
    if (!dirtyConnected_)
        return false;
    if (started != nullptr) {
        // A start joins exactly one component: C, if a path resource
        // carrying another flow lies in it, and then every such
        // resource must, or C would merge with another component. A
        // path resource carrying only the new flow is idle here, even
        // a member the last solve left idle.
        CHAMELEON_ASSERT(dirtyDropped_ == 0,
                         "start after an unsolved detach");
        bool joins = false;
        for (ResourceId r : seeds) {
            const Resource &res = resources_[static_cast<std::size_t>(r)];
            if (res.active.size() == 1)
                continue;
            if (!inDirtySet(res))
                return false;
            joins = true;
        }
        if (!joins)
            return false;
        // C stays one component. The newly busy path resources merge
        // in by index, the new flow has the largest id, and members
        // left idle (none is on the path) drop out in resolve.
        patchRes_.clear();
        for (ResourceId r : seeds) {
            Resource &res = resources_[static_cast<std::size_t>(r)];
            if (res.active.size() == 1 && !inDirtySet(res))
                patchRes_.push_back(&res);
        }
        std::sort(patchRes_.begin(), patchRes_.end());
        std::size_t n = dirtyRes_.size();
        std::size_t k = patchRes_.size();
        dirtyRes_.resize(n + k);
        for (std::size_t out = n + k; k > 0;) {
            if (n > 0 && dirtyRes_[n - 1] > patchRes_[k - 1])
                dirtyRes_[--out] = dirtyRes_[--n];
            else
                dirtyRes_[--out] = patchRes_[--k];
        }
        dirtyFlows_.push_back(started);
        return true;
    }
    // Removals, capacity changes: every seed must be a member. A
    // removed flow's path resources then lay in C, so all removed
    // flows did. Without a removal C is unchanged and is the seeds'
    // component if a seed is busy; a seed idle since the last solve is
    // a component of its own.
    bool any_busy = false;
    for (ResourceId r : seeds) {
        const Resource &res = resources_[static_cast<std::size_t>(r)];
        if (!inDirtySet(res))
            return false;
        any_busy |= !res.active.empty();
    }
    if (dirtyDropped_ == 0 && !any_busy)
        return false;
    patchRes_.clear(); // the busy seeds, once each
    for (ResourceId r : seeds) {
        Resource &res = resources_[static_cast<std::size_t>(r)];
        if (res.mark == epoch)
            continue;
        res.mark = epoch;
        if (!res.active.empty())
            patchRes_.push_back(&res);
    }
    // Removing flows from C leaves pieces that each touch a removed
    // flow, so each holds a seed: all of C's remains are kept. resolve
    // drops the removed flows and the members left idle that are not
    // seeds.
    if (dirtyDropped_ > 0)
        dirtyConnected_ = busySeedsConnected();
    return true;
}

bool
FlowNetwork::busySeedsConnected()
{
    // Every busy piece holds a busy seed (patchRes_), so the pieces
    // are one component iff the busy seeds are connected. A BFS from
    // all of them at once labels what it reaches with its seed's
    // index (mark - base), joins two labels where their regions meet,
    // and stops as soon as one label is left. Only a split makes it
    // visit every piece.
    const std::size_t busy = patchRes_.size();
    if (busy <= 1)
        return busy == 1;
    // Expand the seeds with the fewest flows first: the regions of the
    // later ones then meet what the first labelled sooner.
    std::sort(patchRes_.begin(), patchRes_.end(),
              [](const Resource *a, const Resource *b) {
                  return a->active.size() < b->active.size();
              });
    const uint64_t base = epoch_ + 1;
    epoch_ += busy;
    pieceParent_.resize(busy);
    bfsStack_.clear(); // a FIFO here
    for (std::size_t i = 0; i < busy; ++i) {
        patchRes_[i]->mark = base + i;
        pieceParent_[i] = i;
        bfsStack_.push_back(patchRes_[i]);
    }
    std::size_t pieces = busy;
    // Joins the labels of two regions that meet; true once one is left.
    const auto join = [&](uint64_t a, uint64_t b) {
        std::size_t x = a - base, y = b - base;
        while (pieceParent_[x] != x)
            x = pieceParent_[x];
        while (pieceParent_[y] != y)
            y = pieceParent_[y];
        if (x == y)
            return false;
        pieceParent_[x] = y;
        return --pieces == 1;
    };
    for (std::size_t head = 0; head < bfsStack_.size(); ++head) {
        Resource *res = bfsStack_[head];
        const uint64_t label = res->mark;
        for (Flow *f : res->active) {
            if (f->mark >= base) {
                if (f->mark != label && join(f->mark, label))
                    return true;
                continue;
            }
            f->mark = label;
            for (ResourceId pr : f->path) {
                Resource &o = resources_[static_cast<std::size_t>(pr)];
                if (o.mark >= base) {
                    if (o.mark != label && join(o.mark, label))
                        return true;
                    continue;
                }
                o.mark = label;
                bfsStack_.push_back(&o);
            }
        }
    }
    return false;
}

void
FlowNetwork::resolve(const std::vector<ResourceId> &seeds, Flow *started)
{
    const SimTime now = sim_.now();
    rateRecomputes_.add();
    ++epoch_;
    const uint64_t epoch = epoch_;

    if (referenceSolver_) {
        // Oracle mode: the dirty set is the whole network, making
        // this the classic from-scratch global solve. Everything
        // downstream is shared with incremental mode, so the two
        // modes differ only in dirty-set discovery.
        dirtyRes_.clear();
        dirtyFlows_.clear();
        for (auto &res : resources_) {
            res.mark = epoch;
            dirtyRes_.push_back(&res);
        }
        for (Flow *f : live_)
            if (f != nullptr)
                dirtyFlows_.push_back(f);
        dirtyConnected_ = false;
    } else if (!patchDirtySets(seeds, started, epoch)) {
        // Dirty-set discovery: the max-min allocation of a flow can
        // only change if it shares a resource (transitively) with a
        // changed one, so BFS over the flow<->resource bipartite
        // graph from the seed resources bounds the re-solve to the
        // affected connected component(s). Counting the roots that
        // find flows tells whether they found one component.
        dirtyRes_.clear();
        dirtyFlows_.clear();
        bfsStack_.clear();
        std::size_t roots = 0;
        for (ResourceId r : seeds) {
            Resource &root = resources_[static_cast<std::size_t>(r)];
            if (root.mark == epoch)
                continue;
            root.mark = epoch;
            dirtyRes_.push_back(&root);
            const std::size_t found = dirtyFlows_.size();
            bfsStack_.push_back(&root);
            while (!bfsStack_.empty()) {
                Resource *res = bfsStack_.back();
                bfsStack_.pop_back();
                for (Flow *f : res->active) {
                    if (f->mark == epoch)
                        continue;
                    f->mark = epoch;
                    dirtyFlows_.push_back(f);
                    for (ResourceId pr : f->path) {
                        Resource &o =
                            resources_[static_cast<std::size_t>(pr)];
                        if (o.mark == epoch)
                            continue;
                        o.mark = epoch;
                        dirtyRes_.push_back(&o);
                        bfsStack_.push_back(&o);
                    }
                }
            }
            roots += dirtyFlows_.size() > found;
        }
        dirtyConnected_ = roots == 1;
        orderDirtySets(epoch);
    }
    dirtyDropped_ = 0;

    // Progressive filling (Bertsekas & Gallager) restricted to the
    // dirty component: repeatedly saturate the resource with the
    // smallest fair share among its unfrozen flows; those flows are
    // frozen at that share. Restriction is exact, not approximate:
    // flows outside the component share no resource with it, so the
    // global solve would perform bit-identical arithmetic on the
    // component and leave the rest untouched.
    //
    // The init walks also finish a patch: members left idle drop out
    // unless marked this solve (seeds, and every resource the BFS or
    // reference mode lists), as do the null entries of detached flows.
    if (fair_.size() < dirtyRes_.size())
        fair_.resize(dirtyRes_.size());
    std::size_t nres = 0;
    for (Resource *res : dirtyRes_) {
        if (res->active.empty() && res->mark != epoch)
            continue;
        dirtyRes_[nres] = res;
        res->residual = res->capacity;
        res->unfrozen = res->active.size();
        res->pos = nres;
        fair_[nres++] = res->fairShare();
    }
    dirtyRes_.resize(nres);
    std::size_t nflows = 0;
    for (Flow *f : dirtyFlows_) {
        if (f == nullptr)
            continue;
        dirtyFlows_[nflows] = f;
        f->dirtyPos = static_cast<uint32_t>(nflows++);
        f->prevRate = f->rate;
        f->rate = -1.0; // marks unfrozen
    }
    dirtyFlows_.resize(nflows);
    dirtyResourceVisits_.add(static_cast<int64_t>(nres));
    rateRecomputeVisits_.add(static_cast<int64_t>(nflows));

    std::size_t remaining_flows = nflows;
    while (remaining_flows > 0) {
        // The bottleneck is the first resource in index order with
        // the smallest fair share, as a strict-< scan would pick. A
        // share changes only when a freeze touches its resource, so
        // fair_ is kept current, and a round neither divides nor
        // branches per resource: one pass takes the minimum (four
        // running minima break the compare chain; the minimum is the
        // same in any order, and NaN never wins a <), a second finds
        // the first entry equal to it.
        Rate m[4] = {kInfRate, kInfRate, kInfRate, kInfRate};
        std::size_t i = 0;
        for (; i + 4 <= nres; i += 4)
            for (std::size_t j = 0; j < 4; ++j)
                m[j] = fair_[i + j] < m[j] ? fair_[i + j] : m[j];
        for (; i < nres; ++i)
            m[0] = fair_[i] < m[0] ? fair_[i] : m[0];
        const Rate min_fair =
            std::min(std::min(m[0], m[1]), std::min(m[2], m[3]));
        CHAMELEON_ASSERT(min_fair < kInfRate,
                         "unfrozen flows but no active resource");
        std::size_t b = 0;
        while (fair_[b] != min_fair)
            ++b;
        const Rate best_fair = fair_[b]; // min_fair, sign of zero too
        // Freeze every unfrozen flow crossing the bottleneck.
        // Freezing mutates the fill bookkeeping only, never the
        // active lists, so iterating the list directly is safe —
        // and pointer-chasing-free (no per-flow hash lookup).
        for (Flow *fp : dirtyRes_[b]->active) {
            Flow &flow = *fp;
            if (flow.rate >= 0)
                continue; // already frozen
            flow.rate = best_fair;
            for (ResourceId pr : flow.path) {
                auto &p = resources_[static_cast<std::size_t>(pr)];
                p.residual -= best_fair;
                CHAMELEON_ASSERT(p.unfrozen > 0, "bookkeeping error");
                p.unfrozen -= 1;
                fair_[p.pos] = p.fairShare();
            }
            --remaining_flows;
        }
    }

    // Apply pass, ordered by flow id so both solver modes touch
    // flows in the same sequence: integrate each re-rated flow over
    // the span its old rate covered, and re-key its predicted
    // completion. Flows whose rate is bit-unchanged are skipped —
    // their progress stays lazily pending and their heap entry is
    // already correct. A re-rated flow's resources are marked for the
    // tag-sum refresh below.
    for (Flow *f : dirtyFlows_) {
        if (f->rate == f->prevRate)
            continue;
        integrateFlow(*f, now, f->prevRate);
        f->eta = f->rate > 0 ? now + f->remaining / f->rate
                             : kTimeNever;
        heapUpdate(f);
        for (ResourceId r : f->path)
            resources_[static_cast<std::size_t>(r)].tagMark = epoch;
    }

    // Re-sum the per-tag rates (a left-to-right walk of the active
    // list, free of the FP drift += deltas accumulate, so an idle link
    // reads exactly 0) where they can have changed: on the paths of
    // re-rated flows and on the seeds, whose active lists changed. Any
    // other resource has the same members at the same rates, so its
    // walk would produce the same bits.
    for (ResourceId r : seeds)
        resources_[static_cast<std::size_t>(r)].tagMark = epoch;
    for (Resource *res : dirtyRes_) {
        if (res->tagMark != epoch)
            continue;
        Rate sums[kNumFlowTags] = {0.0, 0.0, 0.0};
        for (const Flow *f : res->active)
            sums[static_cast<int>(f->tag)] += f->rate;
        for (int t = 0; t < kNumFlowTags; ++t)
            res->tagRate[t] = sums[t];
    }

    scheduleNextCompletion();
    dispatchPending();
}

void
FlowNetwork::scheduleNextCompletion()
{
    const SimTime target =
        heap_.empty() ? kTimeNever : heap_.front()->eta;
    if (target == completionEventAt_)
        return; // already armed for exactly this instant
    completionEvent_.cancel();
    completionEventAt_ = target;
    if (target == kTimeNever)
        return;
    completionEvent_ =
        sim_.schedule(target, [this] { onCompletionEvent(); });
}

void
FlowNetwork::onCompletionEvent()
{
    completionEventAt_ = kTimeNever;
    const SimTime now = sim_.now();
    seedScratch_.clear();
    while (!heap_.empty()) {
        Flow *f = heap_.front();
        if (f->eta > now)
            break;
        const SimTime end = integrateFlow(*f, now, f->rate);
        if (f->remaining <= kByteEps) {
            for (ResourceId r : f->path)
                seedScratch_.push_back(r);
            completeFlow(*f, end);
            continue;
        }
        // Predicted completion passed but bytes remain (FP dust).
        // Re-key; if the prediction cannot advance past `now`, the
        // residue is sub-ulp — force completion to avoid a livelock.
        const SimTime eta = now + f->remaining / f->rate;
        if (eta <= now) {
            for (ResourceId r : f->path)
                seedScratch_.push_back(r);
            completeFlow(*f, now);
            continue;
        }
        f->eta = eta;
        heapSiftDown(0);
    }
    resolve(seedScratch_);
}

void
FlowNetwork::dispatchPending()
{
    // Staged completion callbacks may start new flows, which
    // re-enters resolve() — the dispatching_ flag prevents a
    // recursive drain.
    if (dispatching_)
        return;
    dispatching_ = true;
    while (!pendingCallbacks_.empty()) {
        auto batch = std::move(pendingCallbacks_);
        pendingCallbacks_.clear();
        for (auto &cb : batch)
            cb();
    }
    dispatching_ = false;
}

void
FlowNetwork::heapSiftUp(std::size_t i)
{
    Flow *f = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        Flow *p = heap_[parent];
        if (!heapLess(f, p))
            break;
        heap_[i] = p;
        p->heapPos = static_cast<int32_t>(i);
        i = parent;
    }
    heap_[i] = f;
    f->heapPos = static_cast<int32_t>(i);
}

void
FlowNetwork::heapSiftDown(std::size_t i)
{
    Flow *f = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heapLess(heap_[child + 1], heap_[child]))
            ++child;
        if (!heapLess(heap_[child], f))
            break;
        heap_[i] = heap_[child];
        heap_[i]->heapPos = static_cast<int32_t>(i);
        i = child;
    }
    heap_[i] = f;
    f->heapPos = static_cast<int32_t>(i);
}

void
FlowNetwork::heapUpdate(Flow *flow)
{
    if (flow->heapPos < 0) {
        flow->heapPos = static_cast<int32_t>(heap_.size());
        heap_.push_back(flow);
        heapSiftUp(static_cast<std::size_t>(flow->heapPos));
        return;
    }
    heapSiftUp(static_cast<std::size_t>(flow->heapPos));
    heapSiftDown(static_cast<std::size_t>(flow->heapPos));
}

void
FlowNetwork::heapRemove(Flow *flow)
{
    if (flow->heapPos < 0)
        return;
    const std::size_t i = static_cast<std::size_t>(flow->heapPos);
    flow->heapPos = -1;
    Flow *last = heap_.back();
    heap_.pop_back();
    if (last == flow)
        return; // it was the final leaf
    heap_[i] = last;
    last->heapPos = static_cast<int32_t>(i);
    heapSiftUp(i);
    heapSiftDown(i);
}

} // namespace sim
} // namespace chameleon
