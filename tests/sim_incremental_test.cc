/**
 * @file
 * Differential and property tests for the incremental max-min solver.
 *
 * The incremental solver (dirty-component re-solve, lazy progress
 * integration, completion heap) must be indistinguishable from the
 * reference from-scratch solver: a scripted, seeded churn of flow
 * starts, cancels, completions, capacity changes, and syncs is
 * applied to two independent simulations — one per solver mode — and
 * every observable (flow rates bit-for-bit, completion order,
 * per-resource byte counters) is compared after every operation.
 * Invariants (rate sums within capacity, O(1) tag-rate sums matching
 * a fresh walk) are checked on the incremental side, and the
 * dirty-set counters are asserted sublinear on disjoint components.
 * A tie-heavy equal-capacity script also pins a hash of every
 * observable, which catches changes both modes would share.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/flow_network.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"

namespace chameleon {
namespace sim {
namespace {

/** One scripted operation, applied identically to both modes. */
struct Op
{
    enum Kind { kStart, kCancel, kSetCapacity, kSync };

    Kind kind;
    SimTime at;
    std::vector<ResourceId> path; // kStart
    Bytes size = 0.0;             // kStart
    FlowTag tag = FlowTag::kForeground;
    std::size_t victim = 0;  // kCancel: index into the live set
    ResourceId resource = 0; // kSetCapacity
    Rate capacity = 0.0;     // kSetCapacity
};

struct Completion
{
    SimTime at;
    FlowId id;

    bool operator==(const Completion &o) const
    {
        return at == o.at && id == o.id;
    }
};

/** One simulation under churn; two instances run the same script. */
class Churn
{
  public:
    Churn(bool reference, const std::vector<Rate> &caps)
    {
        net_.setReferenceSolver(reference);
        for (std::size_t i = 0; i < caps.size(); ++i)
            net_.addResource("r" + std::to_string(i), caps[i]);
    }

    void apply(const Op &op)
    {
        sim_.run(op.at);
        switch (op.kind) {
        case Op::kStart: {
            const FlowId id = nextId_++;
            live_.push_back(id);
            paths_[id] = op.path;
            tags_[id] = op.tag;
            net_.startFlow(op.path, op.size, op.tag, [this, id] {
                completions_.push_back({sim_.now(), id});
                dropLive(id);
            });
            break;
        }
        case Op::kCancel: {
            // An empty live set turns the op into an unknown-id
            // cancel, exercising the no-op fast path.
            FlowId id = kInvalidFlow;
            if (!live_.empty())
                id = live_[op.victim % live_.size()];
            lastCancelReturn_ = net_.cancelFlow(id);
            dropLive(id);
            break;
        }
        case Op::kSetCapacity:
            net_.setCapacity(op.resource, op.capacity);
            break;
        case Op::kSync:
            net_.sync();
            break;
        }
    }

    void drain(SimTime until) { sim_.run(until); }

    Simulator &sim() { return sim_; }
    FlowNetwork &net() { return net_; }
    const std::vector<FlowId> &live() const { return live_; }
    const std::vector<Completion> &completions() const
    {
        return completions_;
    }
    const std::vector<ResourceId> &pathOf(FlowId id) const
    {
        return paths_.at(id);
    }
    FlowTag tagOf(FlowId id) const { return tags_.at(id); }
    Bytes lastCancelReturn() const { return lastCancelReturn_; }

  private:
    void dropLive(FlowId id)
    {
        auto it = std::find(live_.begin(), live_.end(), id);
        if (it != live_.end())
            live_.erase(it);
    }

    Simulator sim_;
    FlowNetwork net_{sim_};
    FlowId nextId_ = 0;
    std::vector<FlowId> live_;
    std::unordered_map<FlowId, std::vector<ResourceId>> paths_;
    std::unordered_map<FlowId, FlowTag> tags_;
    std::vector<Completion> completions_;
    Bytes lastCancelReturn_ = 0.0;
};

std::vector<Op>
makeScript(uint32_t seed, std::size_t nres, std::size_t nops,
           std::vector<Rate> &caps)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> capDist(20.0, 150.0);
    caps.clear();
    for (std::size_t i = 0; i < nres; ++i)
        caps.push_back(capDist(rng));

    std::vector<Op> ops;
    SimTime t = 0.0;
    std::uniform_real_distribution<double> dtDist(0.0, 0.8);
    std::uniform_real_distribution<double> sizeDist(1.0, 4000.0);
    std::uniform_int_distribution<int> kindDist(0, 99);
    std::uniform_int_distribution<std::size_t> resDist(0, nres - 1);
    for (std::size_t i = 0; i < nops; ++i) {
        t += dtDist(rng);
        Op op;
        op.at = t;
        const int k = kindDist(rng);
        if (k < 45) {
            op.kind = Op::kStart;
            const std::size_t hops = 2 + (rng() % 2);
            while (op.path.size() < hops) {
                const auto r =
                    static_cast<ResourceId>(resDist(rng));
                if (std::find(op.path.begin(), op.path.end(), r) ==
                    op.path.end())
                    op.path.push_back(r);
            }
            // A few degenerate (zero-byte) starts exercise the
            // solver-skipping fast path.
            op.size = k < 3 ? 0.0 : sizeDist(rng);
            op.tag = (rng() % 3 == 0) ? FlowTag::kRepair
                                      : FlowTag::kForeground;
        } else if (k < 70) {
            op.kind = Op::kCancel;
            op.victim = rng();
        } else if (k < 85) {
            op.kind = Op::kSetCapacity;
            op.resource = static_cast<ResourceId>(resDist(rng));
            // Occasionally stall a link completely.
            op.capacity = (rng() % 8 == 0) ? 0.0 : capDist(rng);
        } else {
            op.kind = Op::kSync;
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

/**
 * A tie-heavy script in the shape of the paper's cluster: every
 * resource has the same capacity, sizes are whole bytes, and capacity
 * steps only between 0, 50 and 100, so several resources often offer
 * the same smallest fair share (about one fill round in eight) and
 * the index-order tie-break decides. Starts outnumber cancels, so
 * dozens of flows are live at once, and completions and cancels kill
 * enough of them that the id-ordered live list compacts many times,
 * while small re-solves still take the sorted path. Everything is derived
 * from raw mt19937 output (exactly specified by the standard) with
 * integer operations and one correctly rounded division, so the script
 * is the same on every standard library.
 */
std::vector<Op>
makeTieScript(uint32_t seed, std::size_t nres, std::size_t nops,
              std::vector<Rate> &caps)
{
    std::mt19937 rng(seed);
    caps.assign(nres, 100.0);
    std::vector<Op> ops;
    SimTime t = 0.0;
    for (std::size_t i = 0; i < nops; ++i) {
        // Millisecond steps; about one op in 400 shares an instant.
        t += static_cast<double>(rng() % 400) / 1000.0;
        Op op;
        op.at = t;
        const uint32_t k = rng() % 100;
        if (k < 55) {
            op.kind = Op::kStart;
            const std::size_t hops = 2 + rng() % 2;
            while (op.path.size() < hops) {
                const auto r = static_cast<ResourceId>(rng() % nres);
                if (std::find(op.path.begin(), op.path.end(), r) ==
                    op.path.end())
                    op.path.push_back(r);
            }
            op.size = k < 2 ? 0.0 : static_cast<Bytes>(1 + rng() % 2000);
            op.tag = static_cast<FlowTag>(rng() % kNumFlowTags);
        } else if (k < 75) {
            op.kind = Op::kCancel;
            op.victim = rng();
        } else if (k < 85) {
            op.kind = Op::kSetCapacity;
            op.resource = static_cast<ResourceId>(rng() % nres);
            const uint32_t c = rng() % 8;
            op.capacity = c == 0 ? 0.0 : c < 4 ? 50.0 : 100.0;
        } else {
            op.kind = Op::kSync;
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

/** 64-bit FNV-1a over the bit patterns of the observables fed to it. */
class ObservableHash
{
  public:
    void add(uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (word >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<uint64_t>(v)); }
    void add(int64_t v) { add(static_cast<uint64_t>(v)); }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Feeds every observable of `c` to `hash`: the completions since the
 * last call (`seen` counts those already fed), then the rate and
 * remaining bytes of each live flow, then every resource's per-tag
 * byte counter and rate sum. */
void
hashObservables(Churn &c, ObservableHash &hash, std::size_t &seen)
{
    for (; seen < c.completions().size(); ++seen) {
        hash.add(c.completions()[seen].at);
        hash.add(c.completions()[seen].id);
    }
    for (FlowId id : c.live()) {
        hash.add(id);
        hash.add(c.net().flowRate(id));
        hash.add(c.net().flowRemaining(id));
    }
    for (std::size_t r = 0; r < c.net().resourceCount(); ++r) {
        for (int t = 0; t < kNumFlowTags; ++t) {
            const auto rid = static_cast<ResourceId>(r);
            const auto tag = static_cast<FlowTag>(t);
            hash.add(c.net().taggedBytes(rid, tag));
            hash.add(c.net().currentTagRate(rid, tag));
        }
    }
}

/** Compares every observable of the two modes bit-for-bit. */
void
expectIdentical(Churn &inc, Churn &ref)
{
    ASSERT_EQ(inc.completions().size(), ref.completions().size());
    for (std::size_t i = 0; i < inc.completions().size(); ++i) {
        EXPECT_EQ(inc.completions()[i].at, ref.completions()[i].at);
        EXPECT_EQ(inc.completions()[i].id, ref.completions()[i].id);
    }
    ASSERT_EQ(inc.live(), ref.live());
    EXPECT_EQ(inc.lastCancelReturn(), ref.lastCancelReturn());
    for (FlowId id : inc.live()) {
        ASSERT_TRUE(inc.net().flowActive(id));
        ASSERT_TRUE(ref.net().flowActive(id));
        EXPECT_EQ(inc.net().flowRate(id), ref.net().flowRate(id))
            << "flow " << id;
        EXPECT_EQ(inc.net().flowRemaining(id),
                  ref.net().flowRemaining(id))
            << "flow " << id;
    }
    for (std::size_t r = 0; r < inc.net().resourceCount(); ++r) {
        const auto rid = static_cast<ResourceId>(r);
        for (int t = 0; t < kNumFlowTags; ++t) {
            const auto tag = static_cast<FlowTag>(t);
            EXPECT_EQ(inc.net().currentTagRate(rid, tag),
                      ref.net().currentTagRate(rid, tag))
                << "resource " << r << " tag " << t;
            EXPECT_EQ(inc.net().taggedBytes(rid, tag),
                      ref.net().taggedBytes(rid, tag))
                << "resource " << r << " tag " << t;
        }
        EXPECT_EQ(inc.net().activeFlowsOn(rid),
                  ref.net().activeFlowsOn(rid));
    }
}

/** Invariants of the incremental bookkeeping itself. */
void
expectInvariants(Churn &c)
{
    FlowNetwork &net = c.net();
    for (std::size_t r = 0; r < net.resourceCount(); ++r) {
        const auto rid = static_cast<ResourceId>(r);
        Rate total = 0.0;
        Rate fresh[kNumFlowTags] = {0.0, 0.0};
        for (int t = 0; t < kNumFlowTags; ++t)
            total += net.currentTagRate(rid, static_cast<FlowTag>(t));
        EXPECT_LE(total, net.capacity(rid) + 1e-6);
        // The O(1) per-tag sums must match a fresh walk of the live
        // flows crossing the resource (order-tolerant comparison:
        // the walk sums in id order, the network in list order).
        std::size_t crossing = 0;
        for (FlowId id : c.live()) {
            const auto &path = c.pathOf(id);
            if (std::find(path.begin(), path.end(), rid) ==
                path.end())
                continue;
            ++crossing;
            fresh[static_cast<int>(c.tagOf(id))] +=
                net.flowRate(id);
        }
        EXPECT_EQ(crossing, net.activeFlowsOn(rid));
        for (int t = 0; t < kNumFlowTags; ++t)
            EXPECT_NEAR(
                fresh[t],
                net.currentTagRate(rid, static_cast<FlowTag>(t)),
                1e-6)
                << "resource " << r << " tag " << t;
    }
}

/**
 * Runs `script` in both solver modes, comparing every observable after
 * every operation, and returns the hash of the incremental side's
 * observables along the way.
 */
uint64_t
runDifferential(const std::vector<Op> &script,
                const std::vector<Rate> &caps)
{
    Churn inc(/*reference=*/false, caps);
    Churn ref(/*reference=*/true, caps);
    EXPECT_FALSE(inc.net().referenceSolver());
    EXPECT_TRUE(ref.net().referenceSolver());
    ObservableHash hash;
    std::size_t seen = 0;
    for (const Op &op : script) {
        inc.apply(op);
        ref.apply(op);
        expectIdentical(inc, ref);
        expectInvariants(inc);
        if (::testing::Test::HasFailure())
            return 0; // first divergence is the informative one
        hashObservables(inc, hash, seen);
    }
    // Drain: stalled flows (zero-capacity links) may never
    // finish; run far past the script and compare final state.
    const SimTime horizon = script.back().at + 1e6;
    inc.drain(horizon);
    ref.drain(horizon);
    expectIdentical(inc, ref);
    expectInvariants(inc);
    EXPECT_EQ(inc.sim().eventsExecuted(), ref.sim().eventsExecuted());
    hashObservables(inc, hash, seen);
    return hash.value();
}

TEST(SimIncremental, DifferentialChurnMatchesReferenceSolver)
{
    for (uint32_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::vector<Rate> caps;
        const auto script = makeScript(seed, 12, 250, caps);
        runDifferential(script, caps);
        if (::testing::Test::HasFailure())
            return;
    }
    SCOPED_TRACE("equal capacities");
    std::vector<Rate> caps;
    const auto script = makeTieScript(2025, 16, 600, caps);
    const uint64_t hash = runDifferential(script, caps);
    // Both modes share the fill, apply and tag-sum code, so comparing
    // them cannot see a changed tie-break or summation order. This
    // hash of every observable along the script can: it was recorded
    // before the solver's bookkeeping was last rewritten.
    constexpr uint64_t kTieScriptHash = 0x2b8a10b7b0a6539full;
    EXPECT_EQ(hash, kTieScriptHash) << std::hex << "got 0x" << hash;
}

TEST(SimIncremental, DegenerateStartAndUnknownCancelSkipSolve)
{
    Simulator sim;
    FlowNetwork net(sim);
    net.setReferenceSolver(false);
    const ResourceId r = net.addResource("r", 100.0);
    auto &recomputes =
        telemetry::metrics().counter("sim.rate_recomputes");

    const int64_t before = recomputes.value.load();
    bool fired = false;
    net.startFlow({r}, 0.0, FlowTag::kForeground,
                  [&fired] { fired = true; });
    EXPECT_TRUE(fired);
    net.startFlow({}, 1000.0, FlowTag::kForeground, nullptr);
    EXPECT_EQ(net.cancelFlow(424242), 0.0);
    EXPECT_EQ(recomputes.value.load(), before);
    EXPECT_EQ(net.activeFlowCount(), 0u);
    EXPECT_TRUE(sim.idle());
}

TEST(SimIncremental, DirtySetStaysWithinComponent)
{
    Simulator sim;
    FlowNetwork net(sim);
    net.setReferenceSolver(false);
    auto &visits = telemetry::metrics().counter(
        "sim.rate_recompute_flow_visits");

    // 32 disjoint two-resource components, 4 long flows each: 128
    // live flows total, but churn inside one component must never
    // visit the other 31.
    constexpr int kPairs = 32;
    constexpr int kFlowsPerPair = 4;
    std::vector<ResourceId> up(kPairs), down(kPairs);
    for (int p = 0; p < kPairs; ++p) {
        up[p] = net.addResource("up" + std::to_string(p), 100.0);
        down[p] = net.addResource("down" + std::to_string(p), 100.0);
    }
    for (int p = 0; p < kPairs; ++p)
        for (int f = 0; f < kFlowsPerPair; ++f)
            net.startFlow({up[p], down[p]}, 1e9,
                          FlowTag::kRepair, nullptr);
    ASSERT_EQ(net.activeFlowCount(),
              static_cast<std::size_t>(kPairs * kFlowsPerPair));

    const int64_t before = visits.value.load();
    constexpr int kOps = 100;
    for (int i = 0; i < kOps; ++i) {
        FlowId id = net.startFlow({up[0], down[0]}, 1e9,
                                  FlowTag::kForeground, nullptr);
        net.cancelFlow(id);
    }
    const int64_t delta = visits.value.load() - before;
    // Each op re-solves one 5-flow component twice; a global solve
    // would visit all 128 flows per op. Require a hard sublinear
    // bound: well under one-quarter of global-visit cost.
    EXPECT_LE(delta, kOps * 2 * (kFlowsPerPair + 1));
    EXPECT_LT(delta,
              kOps * kPairs * kFlowsPerPair / 4);
}

/** Flows and resources the dirty sets of some re-solves held. */
struct Visits
{
    int64_t flows = 0;
    int64_t resources = 0;

    bool operator==(const Visits &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Visits &v)
{
    return os << v.flows << " flows, " << v.resources << " resources";
}

/** The visits the re-solves run by `op` add to the two counters. */
template <typename Op>
Visits
visitsOf(Op &&op)
{
    auto &flows =
        telemetry::metrics().counter("sim.rate_recompute_flow_visits");
    auto &resources =
        telemetry::metrics().counter("sim.solver.dirty_resource_visits");
    const int64_t f0 = flows.value.load();
    const int64_t r0 = resources.value.load();
    op();
    return {flows.value.load() - f0, resources.value.load() - r0};
}

// The dirty set of each re-solve must be exactly the union of the
// components holding its seeds, whether the last set was patched or a
// BFS found it. A larger set gives the same rates, so only these
// counts, worked out by hand per operation, can tell.

TEST(SimIncremental, StartOnResourceLeftIdleStaysOutOfOldComponent)
{
    Simulator sim;
    FlowNetwork net(sim);
    net.setReferenceSolver(false);
    const ResourceId a = net.addResource("a", 100.0);
    const ResourceId b = net.addResource("b", 100.0);
    const ResourceId c = net.addResource("c", 100.0);
    const ResourceId x = net.addResource("x", 100.0);
    const ResourceId d = net.addResource("d", 100.0);
    const ResourceId y = net.addResource("y", 100.0);
    net.startFlow({a, b}, 1e9, FlowTag::kRepair, nullptr);
    net.startFlow({b, c}, 1e9, FlowTag::kRepair, nullptr);
    // Joins {a, b, c}: three flows over four resources.
    EXPECT_EQ(visitsOf([&] {
                  net.startFlow({x, b}, 10.0, FlowTag::kForeground,
                                nullptr);
              }),
              (Visits{3, 4}));
    // Its completion leaves x idle; x stays in the set as a seed.
    EXPECT_EQ(visitsOf([&] { sim.run(1.0); }), (Visits{2, 4}));
    ASSERT_EQ(net.activeFlowsOn(x), 0u);
    // A start on x and an idle d is a component of its own, though x
    // was in the last set.
    EXPECT_EQ(visitsOf([&] {
                  net.startFlow({x, d}, 1e9, FlowTag::kForeground,
                                nullptr);
              }),
              (Visits{1, 2}));
    // A start joining {a, b, c} again covers it alone.
    EXPECT_EQ(visitsOf([&] {
                  net.startFlow({c}, 1e9, FlowTag::kForeground, nullptr);
              }),
              (Visits{3, 3}));
    // Leave y idle in the set the same way; the next start into
    // {a, b, c} must drop it.
    EXPECT_EQ(visitsOf([&] {
                  net.startFlow({y, a}, 10.0, FlowTag::kForeground,
                                nullptr);
              }),
              (Visits{4, 4}));
    EXPECT_EQ(visitsOf([&] { sim.run(2.0); }), (Visits{3, 4}));
    ASSERT_EQ(net.activeFlowsOn(y), 0u);
    EXPECT_EQ(visitsOf([&] {
                  net.startFlow({b}, 1e9, FlowTag::kForeground, nullptr);
              }),
              (Visits{4, 3}));
}

TEST(SimIncremental, StartAfterSplittingCancelVisitsOnePiece)
{
    Simulator sim;
    FlowNetwork net(sim);
    net.setReferenceSolver(false);
    const ResourceId a = net.addResource("a", 100.0);
    const ResourceId b = net.addResource("b", 100.0);
    net.startFlow({a}, 1e9, FlowTag::kRepair, nullptr);
    net.startFlow({b}, 1e9, FlowTag::kRepair, nullptr);
    const FlowId bridge =
        net.startFlow({a, b}, 1e9, FlowTag::kRepair, nullptr);
    // The cancel re-solves both pieces it leaves: each holds a seed.
    EXPECT_EQ(visitsOf([&] { net.cancelFlow(bridge); }), (Visits{2, 2}));
    // A start in one piece must not drag the other along.
    EXPECT_EQ(visitsOf([&] {
                  net.startFlow({a}, 1e9, FlowTag::kForeground, nullptr);
              }),
              (Visits{2, 1}));
    EXPECT_EQ(visitsOf([&] {
                  net.startFlow({a}, 1e9, FlowTag::kForeground, nullptr);
              }),
              (Visits{3, 1}));
    // A cancel that splits nothing: the piece keeps its two others.
    const FlowId last =
        net.startFlow({a}, 1e9, FlowTag::kForeground, nullptr);
    EXPECT_EQ(visitsOf([&] { net.cancelFlow(last); }), (Visits{3, 1}));
}

TEST(SimIncremental, SimultaneousCompletionsInTwoComponents)
{
    Simulator sim;
    FlowNetwork net(sim);
    net.setReferenceSolver(false);
    const ResourceId a = net.addResource("a", 100.0);
    const ResourceId b = net.addResource("b", 100.0);
    // Each resource carries a long flow and a 50-byte one at 50 B/s,
    // so both short flows finish at t = 1 in one completion event.
    net.startFlow({a}, 1e9, FlowTag::kRepair, nullptr);
    net.startFlow({a}, 50.0, FlowTag::kForeground, nullptr);
    net.startFlow({b}, 1e9, FlowTag::kRepair, nullptr);
    net.startFlow({b}, 50.0, FlowTag::kForeground, nullptr);
    EXPECT_EQ(visitsOf([&] { sim.run(1.5); }), (Visits{2, 2}));
    EXPECT_EQ(net.activeFlowCount(), 2u);
    EXPECT_EQ(visitsOf([&] {
                  net.startFlow({b}, 1e9, FlowTag::kForeground, nullptr);
              }),
              (Visits{2, 1}));
}

TEST(SimIncremental, CapacityChangeVisitsTheMembersComponent)
{
    Simulator sim;
    FlowNetwork net(sim);
    net.setReferenceSolver(false);
    const ResourceId a = net.addResource("a", 100.0);
    const ResourceId b = net.addResource("b", 100.0);
    const ResourceId c = net.addResource("c", 100.0);
    const ResourceId x = net.addResource("x", 100.0);
    net.startFlow({a, b}, 1e9, FlowTag::kRepair, nullptr);
    net.startFlow({b, c}, 1e9, FlowTag::kRepair, nullptr);
    net.startFlow({x, c}, 10.0, FlowTag::kForeground, nullptr);
    // A busy member: its whole component.
    EXPECT_EQ(visitsOf([&] { net.setCapacity(a, 50.0); }),
              (Visits{3, 4}));
    EXPECT_EQ(visitsOf([&] { sim.run(1.0); }), (Visits{2, 4}));
    ASSERT_EQ(net.activeFlowsOn(x), 0u);
    // The completion left x idle in the set; a change elsewhere in the
    // component drops it.
    EXPECT_EQ(visitsOf([&] { net.setCapacity(b, 80.0); }),
              (Visits{2, 3}));
    EXPECT_EQ(visitsOf([&] {
                  net.startFlow({x, c}, 10.0, FlowTag::kForeground,
                                nullptr);
              }),
              (Visits{3, 4}));
    EXPECT_EQ(visitsOf([&] { sim.run(2.0); }), (Visits{2, 4}));
    ASSERT_EQ(net.activeFlowsOn(x), 0u);
    // A member the last solve left idle: itself only.
    EXPECT_EQ(visitsOf([&] { net.setCapacity(x, 50.0); }),
              (Visits{0, 1}));
    EXPECT_EQ(visitsOf([&] { net.setCapacity(b, 90.0); }),
              (Visits{2, 3}));
}

TEST(SimIncremental, CapacityChangeOnStalledComponentResumes)
{
    // Mode parity across a stall/resume cycle (rate 0 -> positive).
    for (bool reference : {false, true}) {
        Simulator sim;
        FlowNetwork net(sim);
        net.setReferenceSolver(reference);
        const ResourceId r = net.addResource("r", 0.0);
        bool done = false;
        net.startFlow({r}, 100.0, FlowTag::kForeground,
                      [&done] { done = true; });
        sim.run(10.0);
        EXPECT_FALSE(done);
        EXPECT_EQ(net.flowRate(0), 0.0);
        net.setCapacity(r, 10.0);
        sim.run(25.0);
        EXPECT_TRUE(done) << "reference=" << reference;
        EXPECT_EQ(net.activeFlowCount(), 0u);
    }
}

} // namespace
} // namespace sim
} // namespace chameleon
