#include "cluster/stripe_table.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace chameleon {
namespace cluster {

StripeTable::StripeTable(std::shared_ptr<const ec::ErasureCode> code,
                         int num_nodes)
    : code_(std::move(code)), numNodes_(num_nodes)
{
    CHAMELEON_ASSERT(code_ != nullptr, "null code");
    n_ = code_->n();
    CHAMELEON_ASSERT(num_nodes >= n_, "cluster of ", num_nodes,
                     " nodes cannot host ", code_->name(),
                     " stripes (need ", n_, ")");
    CHAMELEON_ASSERT(n_ <= 64,
                     "StripeTable lost-bitmask supports n <= 64, got ",
                     n_);
    CHAMELEON_ASSERT(num_nodes <= kMaxNodes,
                     "StripeTable's 16-bit placement addresses at most ",
                     kMaxNodes, " nodes, got ", num_nodes);
    nodeFlags_.assign(static_cast<std::size_t>(numNodes_), 0);
    nodeIndex_.resize(static_cast<std::size_t>(numNodes_));
    hostStamp_.assign(static_cast<std::size_t>(numNodes_), 0);
    fyPool_.resize(static_cast<std::size_t>(numNodes_));
    for (int i = 0; i < numNodes_; ++i)
        fyPool_[static_cast<std::size_t>(i)] = i;
    // Draw i of a stripe's Fisher-Yates picks from numNodes - i.
    draws_.reserve(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i)
        draws_.emplace_back(static_cast<uint64_t>(numNodes_ - i));
}

void
StripeTable::createStripes(int count, Rng &rng)
{
    CHAMELEON_ASSERT(count >= 0, "negative stripe count");
    const auto n = static_cast<std::size_t>(n_);
    const std::size_t base = lostBits_.size();
    const std::size_t total = base + static_cast<std::size_t>(count);
    CHAMELEON_ASSERT(total * n <= kMaxSlots, total, " stripes of ",
                     code_->name(), " exceed the reverse index's ",
                     kMaxSlots, " packed slots");
    placement_.resize(total * n);
    lostBits_.resize(total, 0);
    gen_.resize(total, 0);
    state_.resize(total, static_cast<uint8_t>(StripeHealth::kHealthy));
    misplaced_.resize(total, 0);

    // Swap targets for one stripe's partial Fisher-Yates; undone in
    // reverse after each stripe so fyPool_ stays the identity
    // permutation without an O(numNodes) re-init per stripe. The
    // draw sequence matches the legacy implementation exactly.
    uint32_t swaps[64];
    for (std::size_t s = base; s < total; ++s) {
        for (int i = 0; i < n_; ++i) {
            const auto j = static_cast<std::size_t>(i) +
                           draws_[static_cast<std::size_t>(i)].draw(rng);
            swaps[i] = static_cast<uint32_t>(j);
            std::swap(fyPool_[static_cast<std::size_t>(i)],
                      fyPool_[j]);
        }
        std::copy_n(fyPool_.begin(), n, placement_.begin() + s * n);
        if (allIndexed_ || soleIndexed_ != kInvalidNode) {
            for (std::size_t c = 0; c < n; ++c) {
                const NodeId node = fyPool_[c];
                if (allIndexed_ || node == soleIndexed_)
                    nodeIndex_[static_cast<std::size_t>(node)]
                        .push_back(static_cast<uint32_t>(s * n + c));
            }
        }
        for (int i = n_ - 1; i >= 0; --i)
            std::swap(fyPool_[static_cast<std::size_t>(i)],
                      fyPool_[swaps[i]]);
    }
}

void
StripeTable::checkStripe(StripeId stripe) const
{
    CHAMELEON_ASSERT(stripe >= 0 &&
                         static_cast<std::size_t>(stripe) <
                             lostBits_.size(),
                     "bad stripe id ", stripe);
}

void
StripeTable::checkNode(NodeId node) const
{
    CHAMELEON_ASSERT(node >= 0 && node < numNodes_, "bad node ",
                     node);
}

NodeId
StripeTable::location(StripeId stripe, ChunkIndex chunk) const
{
    checkStripe(stripe);
    CHAMELEON_ASSERT(chunk >= 0 && chunk < n_, "bad chunk index ",
                     chunk);
    return static_cast<NodeId>(placement_[slot(stripe, chunk)]);
}

uint64_t
StripeTable::derivedMask(StripeId stripe) const
{
    uint64_t mask = lostBits_[static_cast<std::size_t>(stripe)];
    if (pendingWipeCount_ > 0) {
        const std::size_t base = slot(stripe, 0);
        for (int c = 0; c < n_; ++c) {
            if (nodeFlags_[static_cast<std::size_t>(
                    placement_[base + static_cast<std::size_t>(c)])] &
                kNodeWipePending)
                mask |= uint64_t{1} << c;
        }
    }
    return mask;
}

void
StripeTable::relocate(StripeId stripe, ChunkIndex chunk, NodeId node)
{
    checkStripe(stripe);
    checkNode(node);
    CHAMELEON_ASSERT(chunk >= 0 && chunk < n_, "bad chunk index ",
                     chunk);
    // Enforce the one-chunk-per-node invariant.
    const uint64_t mask = derivedMask(stripe);
    const std::size_t base = slot(stripe, 0);
    for (ChunkIndex c = 0; c < n_; ++c) {
        if (c != chunk &&
            placement_[base + static_cast<std::size_t>(c)] == node &&
            !(mask >> c & 1)) {
            CHAMELEON_PANIC("relocating chunk ", chunk, " of stripe ",
                            stripe, " onto node ", node,
                            " which hosts live chunk ", c);
        }
    }
    placement_[base + static_cast<std::size_t>(chunk)] =
        static_cast<uint16_t>(node);
    if (allIndexed_ || node == soleIndexed_)
        nodeIndex_[static_cast<std::size_t>(node)].push_back(
            static_cast<uint32_t>(slot(stripe, chunk)));
    ++gen_[static_cast<std::size_t>(stripe)];
}

bool
StripeTable::chunkLost(StripeId stripe, ChunkIndex chunk) const
{
    checkStripe(stripe);
    if (lostBits_[static_cast<std::size_t>(stripe)] >> chunk & 1)
        return true;
    if (pendingWipeCount_ == 0)
        return false;
    return (nodeFlags_[static_cast<std::size_t>(
                placement_[slot(stripe, chunk)])] &
            kNodeWipePending) != 0;
}

uint64_t
StripeTable::lostMask(StripeId stripe) const
{
    checkStripe(stripe);
    return lostBits_[static_cast<std::size_t>(stripe)];
}

void
StripeTable::markLost(StripeId stripe, ChunkIndex chunk)
{
    checkStripe(stripe);
    const uint64_t bit = uint64_t{1} << chunk;
    auto &bits = lostBits_[static_cast<std::size_t>(stripe)];
    if (!(bits & bit)) {
        bits |= bit;
        ++gen_[static_cast<std::size_t>(stripe)];
    }
}

void
StripeTable::markRepaired(StripeId stripe, ChunkIndex chunk)
{
    checkStripe(stripe);
    const uint64_t bit = uint64_t{1} << chunk;
    auto &bits = lostBits_[static_cast<std::size_t>(stripe)];
    if (bits & bit) {
        bits &= ~bit;
        ++gen_[static_cast<std::size_t>(stripe)];
    }
    // The repair rewrote the payload from verified survivors.
    clearCorrupt(stripe, chunk);
}

void
StripeTable::markCorrupt(StripeId stripe, ChunkIndex chunk)
{
    checkStripe(stripe);
    CHAMELEON_ASSERT(chunk >= 0 && chunk < n_, "bad chunk index ",
                     chunk);
    const uint64_t bit = uint64_t{1} << chunk;
    uint64_t &bits = corrupt_[stripe];
    if (!(bits & bit)) {
        bits |= bit;
        ++corruptCount_;
        // Deliberately no generation bump: bit rot is *silent* —
        // nothing observable changed until detection marks it lost.
    }
}

void
StripeTable::clearCorrupt(StripeId stripe, ChunkIndex chunk)
{
    checkStripe(stripe);
    if (corruptCount_ == 0)
        return;
    const auto it = corrupt_.find(stripe);
    const uint64_t bit = uint64_t{1} << chunk;
    if (it == corrupt_.end() || !(it->second & bit))
        return;
    it->second &= ~bit;
    --corruptCount_;
    if (it->second == 0) {
        corrupt_.erase(it);
        if (corrupt_.empty())
            decltype(corrupt_)().swap(corrupt_);
    }
}

bool
StripeTable::chunkCorrupt(StripeId stripe, ChunkIndex chunk) const
{
    return (corruptMask(stripe) >> chunk & 1) != 0;
}

uint64_t
StripeTable::corruptMask(StripeId stripe) const
{
    checkStripe(stripe);
    if (corruptCount_ == 0)
        return 0;
    const auto it = corrupt_.find(stripe);
    return it == corrupt_.end() ? 0 : it->second;
}

void
StripeTable::buildIndex(NodeId node) const
{
    if (soleIndexed_ == kInvalidNode) {
        // First query: collect this node's slots alone.
        auto &list = nodeIndex_[static_cast<std::size_t>(node)];
        for (std::size_t s = 0; s < placement_.size(); ++s)
            if (placement_[s] == node)
                list.push_back(static_cast<uint32_t>(s));
        soleIndexed_ = node;
        return;
    }
    // A second node: from here on every node's list is kept, so
    // further queries cost no pass at all.
    std::vector<uint32_t> counts(static_cast<std::size_t>(numNodes_), 0);
    for (NodeId p : placement_)
        ++counts[static_cast<std::size_t>(p)];
    for (std::size_t v = 0; v < nodeIndex_.size(); ++v) {
        std::vector<uint32_t> fresh;
        fresh.reserve(counts[v]);
        nodeIndex_[v].swap(fresh);
    }
    for (std::size_t s = 0; s < placement_.size(); ++s)
        nodeIndex_[static_cast<std::size_t>(placement_[s])].push_back(
            static_cast<uint32_t>(s));
    allIndexed_ = true;
}

const std::vector<uint32_t> &
StripeTable::gatherNode(NodeId node) const
{
    if (!allIndexed_ && node != soleIndexed_)
        buildIndex(node);
    auto &list = nodeIndex_[static_cast<std::size_t>(node)];
    // Drop stale entries (chunk relocated away since insertion).
    std::size_t w = 0;
    for (std::size_t r = 0; r < list.size(); ++r) {
        if (placement_[list[r]] == node)
            list[w++] = list[r];
    }
    list.resize(w);
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    return list;
}

std::vector<FailedChunk>
StripeTable::failNode(NodeId node)
{
    checkNode(node);
    CHAMELEON_ASSERT(
        !(nodeFlags_[static_cast<std::size_t>(node)] & kNodeFailed),
        "node ", node, " already failed");
    nodeFlags_[static_cast<std::size_t>(node)] |= kNodeFailed;
    ++failedCount_;
    std::vector<FailedChunk> out;
    for (uint32_t packed : gatherNode(node)) {
        const auto stripe =
            static_cast<StripeId>(packed / static_cast<uint32_t>(n_));
        const auto chunk = static_cast<ChunkIndex>(
            packed % static_cast<uint32_t>(n_));
        if (!chunkLost(stripe, chunk)) {
            markLost(stripe, chunk);
            out.push_back(FailedChunk{stripe, chunk});
        }
    }
    return out;
}

void
StripeTable::failNodeDeferred(NodeId node)
{
    checkNode(node);
    CHAMELEON_ASSERT(
        !(nodeFlags_[static_cast<std::size_t>(node)] & kNodeFailed),
        "node ", node, " already failed");
    nodeFlags_[static_cast<std::size_t>(node)] |=
        kNodeFailed | kNodeWipePending;
    ++failedCount_;
    ++pendingWipeCount_;
    ++wipeStamp_;
}

bool
StripeTable::nodeFailed(NodeId node) const
{
    checkNode(node);
    return (nodeFlags_[static_cast<std::size_t>(node)] &
            kNodeFailed) != 0;
}

void
StripeTable::materializeWipe(StripeId stripe)
{
    checkStripe(stripe);
    if (pendingWipeCount_ == 0)
        return;
    const uint64_t mask = derivedMask(stripe);
    auto &bits = lostBits_[static_cast<std::size_t>(stripe)];
    if (mask != bits) {
        bits = mask;
        ++gen_[static_cast<std::size_t>(stripe)];
    }
}

void
StripeTable::clearPendingWipes()
{
    if (pendingWipeCount_ == 0)
        return;
    for (auto &flags : nodeFlags_)
        flags &= static_cast<uint8_t>(~kNodeWipePending);
    pendingWipeCount_ = 0;
}

void
StripeTable::rejoinNode(NodeId node)
{
    checkNode(node);
    auto &flags = nodeFlags_[static_cast<std::size_t>(node)];
    CHAMELEON_ASSERT(flags & kNodeFailed, "node ", node,
                     " has not failed");
    if (flags & kNodeWipePending) {
        // Persist this node's wipe losses before dropping the flag:
        // the node returns empty, so its chunks stay lost.
        for (uint32_t packed : gatherNode(node)) {
            const auto stripe = static_cast<StripeId>(
                packed / static_cast<uint32_t>(n_));
            const auto chunk = static_cast<ChunkIndex>(
                packed % static_cast<uint32_t>(n_));
            markLost(stripe, chunk);
        }
        flags &= static_cast<uint8_t>(~kNodeWipePending);
        --pendingWipeCount_;
    }
    flags &= static_cast<uint8_t>(~kNodeFailed);
    --failedCount_;
}

std::vector<FailedChunk>
StripeTable::lostChunks() const
{
    std::vector<FailedChunk> out;
    for (StripeId s = 0; s < stripeCount(); ++s) {
        uint64_t mask = derivedMask(s);
        while (mask) {
            const int c = std::countr_zero(mask);
            mask &= mask - 1;
            out.push_back(
                FailedChunk{s, static_cast<ChunkIndex>(c)});
        }
    }
    return out;
}

std::vector<ChunkIndex>
StripeTable::availableChunks(StripeId stripe) const
{
    checkStripe(stripe);
    const uint64_t mask = derivedMask(stripe);
    std::vector<ChunkIndex> out;
    for (ChunkIndex c = 0; c < n_; ++c)
        if (!(mask >> c & 1))
            out.push_back(c);
    return out;
}

std::vector<NodeId>
StripeTable::candidateDestinations(StripeId stripe) const
{
    checkStripe(stripe);
    if (++stampEpoch_ == 0) {
        std::fill(hostStamp_.begin(), hostStamp_.end(), 0u);
        stampEpoch_ = 1;
    }
    const uint64_t mask = derivedMask(stripe);
    const std::size_t base = slot(stripe, 0);
    for (ChunkIndex c = 0; c < n_; ++c) {
        if (!(mask >> c & 1))
            hostStamp_[static_cast<std::size_t>(
                placement_[base + static_cast<std::size_t>(c)])] =
                stampEpoch_;
    }
    std::vector<NodeId> out;
    for (NodeId node = 0; node < numNodes_; ++node) {
        if (hostStamp_[static_cast<std::size_t>(node)] !=
                stampEpoch_ &&
            !(nodeFlags_[static_cast<std::size_t>(node)] &
              kNodeFailed))
            out.push_back(node);
    }
    return out;
}

std::vector<FailedChunk>
StripeTable::chunksOnNode(NodeId node) const
{
    checkNode(node);
    std::vector<FailedChunk> out;
    for (uint32_t packed : gatherNode(node)) {
        out.push_back(FailedChunk{
            static_cast<StripeId>(packed /
                                  static_cast<uint32_t>(n_)),
            static_cast<ChunkIndex>(packed %
                                    static_cast<uint32_t>(n_))});
    }
    return out;
}

uint32_t
StripeTable::generation(StripeId stripe) const
{
    checkStripe(stripe);
    return gen_[static_cast<std::size_t>(stripe)];
}

StripeHealth
StripeTable::state(StripeId stripe) const
{
    checkStripe(stripe);
    return static_cast<StripeHealth>(
        state_[static_cast<std::size_t>(stripe)]);
}

void
StripeTable::setState(StripeId stripe, StripeHealth h)
{
    checkStripe(stripe);
    state_[static_cast<std::size_t>(stripe)] =
        static_cast<uint8_t>(h);
}

StripeId
StripeTable::markHealthyRun(StripeId first, StripeId last)
{
    CHAMELEON_ASSERT(first >= 0 && first <= last &&
                         last <= stripeCount(),
                     "bad stripe run [", first, ", ", last, ")");
    CHAMELEON_ASSERT(pendingWipeCount_ == 0,
                     "markHealthyRun() with a wipe pending");
    auto s = static_cast<std::size_t>(first);
    const auto end = static_cast<std::size_t>(last);
    for (; s < end; ++s) {
        if (lostBits_[s] != 0 || misplaced_[s] != 0)
            break;
        state_[s] = static_cast<uint8_t>(StripeHealth::kHealthy);
    }
    return static_cast<StripeId>(s);
}

bool
StripeTable::misplaced(StripeId stripe) const
{
    checkStripe(stripe);
    return misplaced_[static_cast<std::size_t>(stripe)] != 0;
}

void
StripeTable::markMisplaced(StripeId stripe)
{
    checkStripe(stripe);
    auto &flag = misplaced_[static_cast<std::size_t>(stripe)];
    if (!flag) {
        flag = 1;
        ++gen_[static_cast<std::size_t>(stripe)];
    }
}

void
StripeTable::clearMisplaced(StripeId stripe)
{
    checkStripe(stripe);
    auto &flag = misplaced_[static_cast<std::size_t>(stripe)];
    if (flag) {
        flag = 0;
        ++gen_[static_cast<std::size_t>(stripe)];
    }
}

std::size_t
StripeTable::memoryBytes() const
{
    std::size_t bytes = placement_.capacity() * sizeof(uint16_t) +
                        lostBits_.capacity() * sizeof(uint64_t) +
                        gen_.capacity() * sizeof(uint32_t) +
                        state_.capacity() * sizeof(uint8_t) +
                        misplaced_.capacity() * sizeof(uint8_t) +
                        nodeFlags_.capacity() * sizeof(uint8_t) +
                        hostStamp_.capacity() * sizeof(uint32_t) +
                        fyPool_.capacity() * sizeof(NodeId) +
                        draws_.capacity() * sizeof(FixedBound) +
                        nodeIndex_.capacity() *
                            sizeof(std::vector<uint32_t>);
    // Side-table entries are one node each: a next pointer and the
    // (stripe, mask) pair.
    bytes += corrupt_.bucket_count() * sizeof(void *) +
             corrupt_.size() *
                 (sizeof(void *) + sizeof(decltype(corrupt_)::value_type));
    for (const auto &list : nodeIndex_)
        bytes += list.capacity() * sizeof(uint32_t);
    return bytes;
}

} // namespace cluster
} // namespace chameleon
