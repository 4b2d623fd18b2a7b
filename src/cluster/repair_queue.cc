#include "cluster/repair_queue.hh"

#include <algorithm>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace cluster {

RepairQueue::RepairQueue(StripeTable &stripes,
                         RepairQueueConfig config)
    : stripes_(stripes), config_(config),
      nodeJobs_(static_cast<std::size_t>(stripes.numNodes()), 0),
      metScanSteps_(
          telemetry::metrics().counter("repair.queue.scan_steps")),
      metMemoSkips_(
          telemetry::metrics().counter("repair.queue.memo_skips")),
      metAdmitted_(
          telemetry::metrics().counter("repair.queue.admitted"))
{
    CHAMELEON_ASSERT(config_.maxTotalJobs >= 1,
                     "maxTotalJobs must be >= 1");
    CHAMELEON_ASSERT(config_.maxNodeJobs >= 1,
                     "maxNodeJobs must be >= 1");
}

bool
RepairQueue::push(FailedChunk chunk, RepairTier tier)
{
    const Key key{chunk.stripe, chunk.chunk};
    auto [it, fresh] = entries_.try_emplace(key, Entry{});
    if (fresh) {
        it->second.tier = tier;
    } else {
        // Dedup: escalate only a still-queued entry to a strictly
        // higher tier; the stale lower-tier slot drops lazily.
        if (it->second.state != EntryState::kQueued ||
            tier >= it->second.tier)
            return false;
        it->second.tier = tier;
    }
    tiers_[static_cast<std::size_t>(tier)].push_back(chunk);
    ++depth_[static_cast<std::size_t>(tier)];
    tierBlocked_[static_cast<std::size_t>(tier)] = false;
    return true;
}

std::vector<NodeId>
RepairQueue::charges(const FailedChunk &chunk) const
{
    std::vector<NodeId> nodes;
    if (chunk.chunk == kBalancerChunk) {
        // Whole-stripe placement work reads one live replica.
        const auto avail = stripes_.availableChunks(chunk.stripe);
        if (!avail.empty())
            nodes.push_back(
                stripes_.location(chunk.stripe, avail.front()));
        return nodes;
    }
    const auto avail = stripes_.availableChunks(chunk.stripe);
    const auto pool = stripes_.code().helperPool(
        chunk.chunk, std::span<const ChunkIndex>(avail));
    const auto take = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(pool.required, 0)),
        avail.size());
    nodes.reserve(take);
    for (std::size_t i = 0; i < take; ++i)
        nodes.push_back(stripes_.location(chunk.stripe, avail[i]));
    return nodes;
}

bool
RepairQueue::nodesFree(const std::vector<NodeId> &nodes) const
{
    for (NodeId n : nodes) {
        if (nodeJobs_[static_cast<std::size_t>(n)] >=
            config_.maxNodeJobs)
            return false;
    }
    return true;
}

bool
RepairQueue::stale(const FailedChunk &chunk) const
{
    if (chunk.chunk == kBalancerChunk)
        return !stripes_.misplaced(chunk.stripe);
    return !stripes_.chunkLost(chunk.stripe, chunk.chunk);
}

std::optional<AdmittedRepair>
RepairQueue::pop()
{
    if (inFlight_ >= config_.maxTotalJobs)
        return std::nullopt;
    for (int t = 0; t < kRepairTiers; ++t) {
        if (tierBlocked_[t])
            continue;
        auto &q = tiers_[t];
        for (std::size_t i = 0; i < q.size();) {
            const FailedChunk fc = q[i];
            const Key key{fc.stripe, fc.chunk};
            auto it = entries_.find(key);
            // Lazily drop stale slots: escalated away, already in
            // flight from another slot, or no longer needing work.
            if (it == entries_.end() ||
                it->second.state != EntryState::kQueued ||
                it->second.tier != static_cast<RepairTier>(t)) {
                q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
                --depth_[t];
                continue;
            }
            if (stale(fc)) {
                entries_.erase(it);
                q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
                --depth_[t];
                continue;
            }
            // O(1) saturation skip: same helper set (generation
            // unchanged) and the node that blocked us last time is
            // still at its cap, so a full recheck cannot succeed.
            Entry &entry = it->second;
            const uint32_t gen =
                stripes_.generation(fc.stripe);
            if (entry.blockedOn != kInvalidNode &&
                entry.checkedEpoch == memoEpoch_ &&
                entry.checkedGen == gen &&
                nodeJobs_[static_cast<std::size_t>(
                    entry.blockedOn)] >= config_.maxNodeJobs) {
                metMemoSkips_.add();
                ++i;
                continue;
            }
            metScanSteps_.add();
            auto nodes = charges(fc);
            NodeId blocker = kInvalidNode;
            for (NodeId n : nodes) {
                if (nodeJobs_[static_cast<std::size_t>(n)] >=
                    config_.maxNodeJobs) {
                    blocker = n;
                    break;
                }
            }
            if (blocker != kInvalidNode) {
                entry.blockedOn = blocker;
                entry.checkedGen = gen;
                entry.checkedEpoch = memoEpoch_;
                ++i;
                continue;
            }
            entry.blockedOn = kInvalidNode;
            for (NodeId n : nodes)
                ++nodeJobs_[static_cast<std::size_t>(n)];
            ++inFlight_;
            ++admittedTotal_;
            it->second.state = EntryState::kInFlight;
            heldCharges_.emplace(key, std::move(nodes));
            q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
            --depth_[t];
            metAdmitted_.add();
            return AdmittedRepair{fc, static_cast<RepairTier>(t)};
        }
        // Full scan found nothing admissible; skip this tier until
        // a push/complete/invalidate can change the answer. A
        // *blocked* higher tier never lets a lower tier overtake —
        // blocked means "not admissible", which is exactly when
        // draining lower tiers is allowed.
        tierBlocked_[t] = true;
    }
    return std::nullopt;
}

void
RepairQueue::complete(const FailedChunk &chunk)
{
    const Key key{chunk.stripe, chunk.chunk};
    auto it = entries_.find(key);
    CHAMELEON_ASSERT(it != entries_.end() &&
                         it->second.state == EntryState::kInFlight,
                     "complete() for stripe ", chunk.stripe,
                     " chunk ", chunk.chunk, " not in flight");
    auto held = heldCharges_.find(key);
    CHAMELEON_ASSERT(held != heldCharges_.end(),
                     "in-flight entry has no held charges");
    for (NodeId n : held->second) {
        auto &jobs = nodeJobs_[static_cast<std::size_t>(n)];
        CHAMELEON_ASSERT(jobs > 0, "node job underflow on ", n);
        --jobs;
    }
    heldCharges_.erase(held);
    entries_.erase(it);
    --inFlight_;
    // Re-open tier scans, but keep the per-entry saturation memos:
    // a completion only decrements nodeJobs_, and the memo's skip
    // condition re-reads nodeJobs_[blockedOn] on every pop(), so
    // freed blockers are picked up without voiding the epoch.
    for (bool &b : tierBlocked_)
        b = false;
}

void
RepairQueue::invalidate()
{
    for (bool &b : tierBlocked_)
        b = false;
    // Deferred crashes/rejoins flip wipe-pending node flags, which
    // changes derived chunk availability (and thus each entry's
    // helper charges) without bumping any per-stripe generation —
    // the saturation memos cannot see that, so void them wholesale.
    ++memoEpoch_;
}

int
RepairQueue::depth() const
{
    return depth_[0] + depth_[1] + depth_[2];
}

bool
RepairQueue::idle() const
{
    return inFlight_ == 0 && entries_.empty();
}

int
RepairQueue::jobsOnNode(NodeId node) const
{
    CHAMELEON_ASSERT(node >= 0 &&
                         static_cast<std::size_t>(node) <
                             nodeJobs_.size(),
                     "bad node ", node);
    return nodeJobs_[static_cast<std::size_t>(node)];
}

bool
RepairQueue::admissibleInTier(RepairTier tier) const
{
    if (inFlight_ >= config_.maxTotalJobs)
        return false;
    const auto t = static_cast<std::size_t>(tier);
    for (const FailedChunk &fc : tiers_[t]) {
        auto it = entries_.find(Key{fc.stripe, fc.chunk});
        if (it == entries_.end() ||
            it->second.state != EntryState::kQueued ||
            it->second.tier != tier)
            continue;
        if (stale(fc))
            continue;
        if (nodesFree(charges(fc)))
            return true;
    }
    return false;
}

} // namespace cluster
} // namespace chameleon
