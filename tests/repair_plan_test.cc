/**
 * @file
 * Tests for repair-plan construction and algebra: topology builders,
 * validation, byte-exact plan evaluation for every topology and code,
 * Algorithm 1 (establishPaths) properties, and the ChameleonEC task
 * dispatcher (planChunk) behavior under heterogeneous bandwidth.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cluster/stripe_table.hh"
#include "ec/factory.hh"
#include "repair/chameleon_planner.hh"
#include "repair/plan.hh"
#include "util/rng.hh"

namespace chameleon {
namespace repair {
namespace {

std::vector<PlanSource>
sourcesFor(const cluster::StripeTable &stripes,
           const ec::RepairSpec &spec, StripeId stripe)
{
    std::vector<PlanSource> out;
    for (const auto &read : spec.reads) {
        PlanSource src;
        src.node = stripes.location(stripe, read.helper);
        src.chunk = read.helper;
        src.coeff = read.coeff;
        src.fraction = read.fraction;
        out.push_back(src);
    }
    return out;
}

class PlanTopologyTest : public ::testing::Test
{
  protected:
    PlanTopologyTest()
        : code_(ec::makeRs(6, 3)), stripes_(code_, 12)
    {
        Rng rng(5);
        stripes_.createStripes(4, rng);
    }

    std::shared_ptr<const ec::ErasureCode> code_;
    cluster::StripeTable stripes_;
};

TEST_F(PlanTopologyTest, StarShape)
{
    Rng rng(1);
    auto avail = stripes_.availableChunks(0);
    avail.erase(std::remove(avail.begin(), avail.end(), 2),
                avail.end());
    auto spec = code_->makeRepairSpec(2, avail, rng);
    auto dest = stripes_.candidateDestinations(0).front();
    auto plan = buildStarPlan(0, 2, dest, sourcesFor(stripes_, spec, 0),
                              true);
    EXPECT_EQ(plan.depth(), 1);
    for (const auto &src : plan.sources)
        EXPECT_EQ(src.parent, kToDestination);
    EXPECT_EQ(plan.childrenOf(kToDestination).size(),
              plan.sources.size());
}

TEST_F(PlanTopologyTest, PprTreeShape)
{
    Rng rng(2);
    auto avail = stripes_.availableChunks(0);
    avail.erase(std::remove(avail.begin(), avail.end(), 0),
                avail.end());
    auto spec = code_->makeRepairSpec(0, avail, rng);
    auto dest = stripes_.candidateDestinations(0).front();
    auto plan = buildPprPlan(0, 0, dest, sourcesFor(stripes_, spec, 0));
    // Exactly one source uploads to the destination; depth is
    // ceil(log2(k)) + 1.
    EXPECT_EQ(plan.childrenOf(kToDestination).size(), 1u);
    EXPECT_EQ(plan.depth(), 4); // k=6: 3 pairing rounds + final hop
}

TEST_F(PlanTopologyTest, ChainShape)
{
    Rng rng(3);
    auto avail = stripes_.availableChunks(1);
    avail.erase(std::remove(avail.begin(), avail.end(), 4),
                avail.end());
    auto spec = code_->makeRepairSpec(4, avail, rng);
    auto dest = stripes_.candidateDestinations(1).front();
    auto plan =
        buildChainPlan(1, 4, dest, sourcesFor(stripes_, spec, 1));
    EXPECT_EQ(plan.depth(), static_cast<int>(plan.sources.size()));
    EXPECT_EQ(plan.childrenOf(kToDestination).size(), 1u);
    // Every non-terminal source has exactly one child except the
    // chain head.
    int heads = 0;
    for (int i = 0; i < static_cast<int>(plan.sources.size()); ++i) {
        auto children = plan.childrenOf(i);
        EXPECT_LE(children.size(), 1u);
        heads += children.empty();
    }
    EXPECT_EQ(heads, 1);
}

// Evaluate all three topologies byte-exactly for RS and LRC.
TEST(PlanEvaluation, AllTopologiesReconstructRs)
{
    auto code = ec::makeRs(6, 3);
    cluster::StripeTable stripes(code, 12);
    Rng rng(7);
    stripes.createStripes(1, rng);

    // Real data for the stripe.
    std::vector<ec::Buffer> data;
    for (int i = 0; i < code->k(); ++i) {
        ec::Buffer b(128);
        for (auto &v : b)
            v = static_cast<uint8_t>(rng.below(256));
        data.push_back(std::move(b));
    }
    auto parity = code->encode(data);
    std::vector<ec::Buffer> chunks = data;
    for (auto &p : parity)
        chunks.push_back(std::move(p));

    for (ChunkIndex failed = 0; failed < code->n(); ++failed) {
        std::vector<ChunkIndex> avail;
        for (ChunkIndex c = 0; c < code->n(); ++c)
            if (c != failed)
                avail.push_back(c);
        auto spec = code->makeRepairSpec(failed, avail, rng);
        auto dest = stripes.candidateDestinations(0).front();
        auto sources = sourcesFor(stripes, spec, 0);

        auto star = buildStarPlan(0, failed, dest, sources, true);
        auto tree = buildPprPlan(0, failed, dest, sources);
        auto chain = buildChainPlan(0, failed, dest, sources);
        EXPECT_EQ(evaluatePlan(star, chunks),
                  chunks[static_cast<std::size_t>(failed)]);
        EXPECT_EQ(evaluatePlan(tree, chunks),
                  chunks[static_cast<std::size_t>(failed)]);
        EXPECT_EQ(evaluatePlan(chain, chunks),
                  chunks[static_cast<std::size_t>(failed)]);
    }
}

TEST(PlanEvaluation, LrcLocalRepairThroughTree)
{
    auto code = ec::makeLrc(8, 2, 2);
    cluster::StripeTable stripes(code, 14);
    Rng rng(9);
    stripes.createStripes(1, rng);

    std::vector<ec::Buffer> data;
    for (int i = 0; i < code->k(); ++i) {
        ec::Buffer b(64);
        for (auto &v : b)
            v = static_cast<uint8_t>(rng.below(256));
        data.push_back(std::move(b));
    }
    auto parity = code->encode(data);
    std::vector<ec::Buffer> chunks = data;
    for (auto &p : parity)
        chunks.push_back(std::move(p));

    auto avail = stripes.availableChunks(0);
    avail.erase(std::remove(avail.begin(), avail.end(), 3),
                avail.end());
    auto spec = code->makeRepairSpec(3, avail, rng);
    auto dest = stripes.candidateDestinations(0).front();
    auto plan = buildPprPlan(0, 3, dest, sourcesFor(stripes, spec, 0));
    EXPECT_EQ(evaluatePlan(plan, chunks), chunks[3]);
}

/** Plan evaluation, repairCompute and the original chunk agree. */
void
expectPlanRepairs(const ec::ErasureCode &code,
                  const std::vector<ec::Buffer> &chunks,
                  const ec::RepairSpec &spec, const ChunkRepairPlan &plan)
{
    std::vector<ec::Buffer> helper_data;
    for (const auto &read : spec.reads)
        helper_data.push_back(
            chunks[static_cast<std::size_t>(read.helper)]);
    const ec::Buffer direct = code.repairCompute(spec, helper_data);
    EXPECT_EQ(direct, chunks[static_cast<std::size_t>(spec.failed)]);
    EXPECT_EQ(evaluatePlan(plan, chunks), direct);
}

std::vector<ec::Buffer>
randomStripe(Rng &rng, const ec::ErasureCode &code, std::size_t size)
{
    std::vector<ec::Buffer> chunks;
    for (int i = 0; i < code.k(); ++i) {
        ec::Buffer b(size);
        for (auto &v : b)
            v = static_cast<uint8_t>(rng.below(256));
        chunks.push_back(std::move(b));
    }
    for (auto &p : code.encode(chunks))
        chunks.push_back(std::move(p));
    return chunks;
}

/** Relays with three or more children, mixing leaf and relay
 * children, and a destination with several relay children: the
 * in-place walk folds every other child into the first relay child's
 * buffer, seeds a spare buffer for relays with only leaf children,
 * and reuses the folded children's buffers. */
TEST(PlanEvaluation, RelaysWithThreeOrMoreChildren)
{
    auto code = ec::makeRs(6, 3);
    cluster::StripeTable stripes(code, 12);
    Rng rng(11);
    stripes.createStripes(1, rng);
    auto chunks = randomStripe(rng, *code, 257);
    auto avail = stripes.availableChunks(0);
    avail.erase(std::remove(avail.begin(), avail.end(), 4), avail.end());
    auto spec = code->makeRepairSpec(4, avail, rng);
    ASSERT_EQ(spec.reads.size(), 6u);
    const auto dest = stripes.candidateDestinations(0).front();
    for (const std::vector<int> &parents :
         {std::vector<int>{3, 3, 3, 5, 5, -1},  // relay 3: three leaves
          std::vector<int>{1, 5, 3, 5, 5, -1},  // relay 5: two relays + leaf
          std::vector<int>{5, 5, 5, 5, 5, -1},  // relay 5: five leaves
          std::vector<int>{1, -1, 3, -1, -1, 4}}) { // three top relays
        auto plan = buildStarPlan(0, 4, dest, sourcesFor(stripes, spec, 0),
                                  true);
        for (std::size_t i = 0; i < parents.size(); ++i)
            plan.sources[i].parent = parents[i];
        plan.validate();
        expectPlanRepairs(*code, chunks, spec, plan);
    }
}

/** rs(24,8) over a 24-source chain: 24 partials deep, each relay
 * folding into the one buffer its child passes up. */
TEST(PlanEvaluation, Rs24ChainTwentyFourDeep)
{
    auto code = ec::makeCode("rs(24,8)");
    cluster::StripeTable stripes(code, 40);
    Rng rng(12);
    stripes.createStripes(1, rng);
    auto chunks = randomStripe(rng, *code, 4097);
    auto avail = stripes.availableChunks(0);
    avail.erase(std::remove(avail.begin(), avail.end(), 7), avail.end());
    auto spec = code->makeRepairSpec(7, avail, rng);
    ASSERT_EQ(spec.reads.size(), 24u);
    auto plan = buildChainPlan(0, 7, stripes.candidateDestinations(0).front(),
                               sourcesFor(stripes, spec, 0));
    ASSERT_EQ(plan.depth(), 24);
    expectPlanRepairs(*code, chunks, spec, plan);
}

TEST(PlanEvaluation, RejectsMixedChunkSizes)
{
    auto code = ec::makeRs(4, 2);
    cluster::StripeTable stripes(code, 8);
    Rng rng(13);
    stripes.createStripes(1, rng);
    auto chunks = randomStripe(rng, *code, 64);
    auto avail = stripes.availableChunks(0);
    avail.erase(std::remove(avail.begin(), avail.end(), 0), avail.end());
    auto spec = code->makeRepairSpec(0, avail, rng);
    auto plan = buildPprPlan(0, 0, stripes.candidateDestinations(0).front(),
                             sourcesFor(stripes, spec, 0));
    chunks[static_cast<std::size_t>(spec.reads.back().helper)].resize(32);
    EXPECT_DEATH(evaluatePlan(plan, chunks), "chunk sizes differ");
}

TEST(PlanValidation, RejectsCycle)
{
    ChunkRepairPlan plan;
    plan.destination = 9;
    PlanSource a, b;
    a.node = 0;
    a.parent = 1;
    b.node = 1;
    b.parent = 0;
    plan.sources = {a, b};
    EXPECT_DEATH(plan.validate(), "cycle");
}

TEST(PlanValidation, RejectsDuplicateNode)
{
    ChunkRepairPlan plan;
    plan.destination = 9;
    PlanSource a, b;
    a.node = 3;
    b.node = 3;
    plan.sources = {a, b};
    EXPECT_DEATH(plan.validate(), "twice");
}

TEST(PlanValidation, RejectsIndirectNonCombinable)
{
    ChunkRepairPlan plan;
    plan.destination = 9;
    plan.combinable = false;
    PlanSource a, b;
    a.node = 0;
    a.parent = 1;
    b.node = 1;
    plan.sources = {a, b};
    EXPECT_DEATH(plan.validate(), "star");
}

TEST(PlanTraffic, CountsFractions)
{
    ChunkRepairPlan plan;
    plan.destination = 5;
    PlanSource a, b, c;
    a.node = 0;
    a.fraction = 0.5;
    b.node = 1;
    b.fraction = 0.5;
    c.node = 2;
    c.fraction = 1.0;
    plan.sources = {a, b, c};
    EXPECT_DOUBLE_EQ(plan.trafficChunks(), 2.0);
}

// ------------------------------------------------- Algorithm 1

void
checkPathsValid(const std::vector<int> &downloads, int dest_downloads,
                const std::vector<int> &parent)
{
    const int k = static_cast<int>(downloads.size());
    ASSERT_EQ(parent.size(), downloads.size());
    // Uploads into each node equal its download tasks.
    std::vector<int> in(static_cast<std::size_t>(k), 0);
    int to_dest = 0;
    for (int i = 0; i < k; ++i) {
        int p = parent[static_cast<std::size_t>(i)];
        if (p == kToDestination) {
            ++to_dest;
        } else {
            ASSERT_GE(p, 0);
            ASSERT_LT(p, k);
            ASSERT_NE(p, i);
            in[static_cast<std::size_t>(p)]++;
        }
    }
    EXPECT_EQ(to_dest, dest_downloads);
    for (int i = 0; i < k; ++i)
        EXPECT_EQ(in[static_cast<std::size_t>(i)],
                  downloads[static_cast<std::size_t>(i)])
            << "node " << i;
    // Acyclic: walk each source to the root.
    for (int i = 0; i < k; ++i) {
        int cur = i, steps = 0;
        while (parent[static_cast<std::size_t>(cur)] != kToDestination) {
            cur = parent[static_cast<std::size_t>(cur)];
            ASSERT_LE(++steps, k) << "cycle detected";
        }
    }
}

TEST(EstablishPaths, PaperExample)
{
    // Figure 8/9: four sources, downloads (0, 2, 1, 0) at sources
    // N1, N3, N4, N7 and one at the destination.
    std::vector<int> downloads = {0, 2, 1, 0};
    auto parent = establishPaths(downloads, 1);
    checkPathsValid(downloads, 1, parent);
}

TEST(EstablishPaths, AllToDestinationWhenNoRelays)
{
    std::vector<int> downloads = {0, 0, 0, 0};
    auto parent = establishPaths(downloads, 4);
    for (int p : parent)
        EXPECT_EQ(p, kToDestination);
}

TEST(EstablishPaths, ChainDistribution)
{
    // Each source i>0 has one download: a chain must emerge.
    std::vector<int> downloads = {0, 1, 1, 1, 1};
    auto parent = establishPaths(downloads, 1);
    checkPathsValid(downloads, 1, parent);
}

TEST(EstablishPaths, RandomizedProperty)
{
    Rng rng(31);
    for (int trial = 0; trial < 500; ++trial) {
        int k = 2 + static_cast<int>(rng.below(14));
        // Random distribution: dest >= 1, total = k.
        int dest = 1 + static_cast<int>(rng.below(
            static_cast<uint64_t>(k)));
        std::vector<int> downloads(static_cast<std::size_t>(k), 0);
        int remaining = k - dest;
        while (remaining > 0) {
            auto i = rng.below(static_cast<uint64_t>(k));
            downloads[i]++;
            --remaining;
        }
        auto parent = establishPaths(downloads, dest);
        checkPathsValid(downloads, dest, parent);
    }
}

// ------------------------------------------------- planChunk

PlannerChunkInput
rsInput(int k, int m, int nodes)
{
    PlannerChunkInput input;
    input.stripe = 0;
    input.failed = 0;
    input.required = k;
    input.fixedSet = false;
    input.combinable = true;
    // Helpers on nodes 1..k+m-1; failed chunk was on node 0.
    for (int i = 1; i < k + m; ++i) {
        input.helperChunks.push_back(i);
        input.helperNodes.push_back(i);
        input.fractions.push_back(1.0);
    }
    for (int i = k + m; i < nodes; ++i)
        input.destCandidates.push_back(i);
    return input;
}

TEST(PlanChunk, UniformBandwidthProducesValidPlan)
{
    auto state = PlannerState::make(20, 64.0);
    std::fill(state.bandUp.begin(), state.bandUp.end(), 100.0);
    std::fill(state.bandDown.begin(), state.bandDown.end(), 100.0);
    auto input = rsInput(10, 4, 20);
    auto planned = planChunk(state, input);
    ASSERT_TRUE(planned.has_value());
    planned->plan.validate();
    EXPECT_EQ(planned->plan.sources.size(), 10u);
    EXPECT_GT(planned->estimatedTime, 0.0);
    EXPECT_EQ(planned->edgeExpectation.size(), 10u);
}

TEST(PlanChunk, AvoidsBandwidthPoorDestination)
{
    auto state = PlannerState::make(20, 64.0);
    std::fill(state.bandUp.begin(), state.bandUp.end(), 100.0);
    std::fill(state.bandDown.begin(), state.bandDown.end(), 100.0);
    auto input = rsInput(10, 4, 20);
    // Starve node 14's downlink; it should not be the destination.
    state.bandDown[14] = 1.0;
    auto planned = planChunk(state, input);
    ASSERT_TRUE(planned.has_value());
    EXPECT_NE(planned->plan.destination, 14);
}

TEST(PlanChunk, AvoidsBandwidthPoorHelper)
{
    auto state = PlannerState::make(20, 64.0);
    std::fill(state.bandUp.begin(), state.bandUp.end(), 100.0);
    std::fill(state.bandDown.begin(), state.bandDown.end(), 100.0);
    // Node 5 has a starved uplink; with 13 candidates and 10 slots,
    // it should be left out.
    state.bandUp[5] = 1.0;
    auto input = rsInput(10, 4, 20);
    auto planned = planChunk(state, input);
    ASSERT_TRUE(planned.has_value());
    for (const auto &src : planned->plan.sources)
        EXPECT_NE(src.node, 5);
}

TEST(PlanChunk, RichSourceBandwidthCreatesRelays)
{
    auto state = PlannerState::make(20, 64.0);
    std::fill(state.bandUp.begin(), state.bandUp.end(), 100.0);
    std::fill(state.bandDown.begin(), state.bandDown.end(), 100.0);
    // Destination downlink is the scarce resource: downloads should
    // spread to relay sources instead of all landing on it.
    for (std::size_t i = 14; i < 20; ++i)
        state.bandDown[i] = 10.0;
    auto input = rsInput(10, 4, 20);
    auto planned = planChunk(state, input);
    ASSERT_TRUE(planned.has_value());
    int relays = 0;
    for (int i = 0; i < 10; ++i)
        relays += !planned->plan.childrenOf(i).empty();
    EXPECT_GT(relays, 0) << "expected relay sources under a scarce "
                            "destination downlink";
}

TEST(PlanChunk, TaskCountsAccumulateAcrossChunks)
{
    auto state = PlannerState::make(20, 64.0);
    std::fill(state.bandUp.begin(), state.bandUp.end(), 100.0);
    std::fill(state.bandDown.begin(), state.bandDown.end(), 100.0);
    auto input = rsInput(10, 4, 20);
    auto first = planChunk(state, input);
    ASSERT_TRUE(first.has_value());
    int total_up = 0, total_down = 0;
    for (int t : state.taskUp)
        total_up += t;
    for (int t : state.taskDown)
        total_down += t;
    EXPECT_EQ(total_up, 10);
    EXPECT_EQ(total_down, 10);
    auto second = planChunk(state, input);
    ASSERT_TRUE(second.has_value());
    // Estimated time grows as the phase fills.
    EXPECT_GE(second->estimatedTime, first->estimatedTime);
}

TEST(PlanChunk, SuccessiveChunksSpreadDestinations)
{
    auto state = PlannerState::make(20, 64.0);
    std::fill(state.bandUp.begin(), state.bandUp.end(), 100.0);
    std::fill(state.bandDown.begin(), state.bandDown.end(), 100.0);
    auto input = rsInput(10, 4, 20);
    std::set<NodeId> dests;
    for (int i = 0; i < 5; ++i) {
        auto planned = planChunk(state, input);
        ASSERT_TRUE(planned.has_value());
        dests.insert(planned->plan.destination);
    }
    // Minimum-time-first selection rotates under accumulating load.
    EXPECT_GT(dests.size(), 1u);
}

TEST(PlanChunk, FixedSetUsesAllCandidates)
{
    auto state = PlannerState::make(10, 64.0);
    std::fill(state.bandUp.begin(), state.bandUp.end(), 100.0);
    std::fill(state.bandDown.begin(), state.bandDown.end(), 100.0);
    PlannerChunkInput input;
    input.required = 4;
    input.fixedSet = true;
    input.combinable = true;
    for (int i = 1; i <= 4; ++i) {
        input.helperChunks.push_back(i);
        input.helperNodes.push_back(i);
        input.fractions.push_back(1.0);
    }
    input.destCandidates = {7, 8, 9};
    auto planned = planChunk(state, input);
    ASSERT_TRUE(planned.has_value());
    std::set<NodeId> nodes;
    for (const auto &src : planned->plan.sources)
        nodes.insert(src.node);
    EXPECT_EQ(nodes, (std::set<NodeId>{1, 2, 3, 4}));
}

TEST(PlanChunk, NonCombinableIsStar)
{
    auto state = PlannerState::make(10, 64.0);
    std::fill(state.bandUp.begin(), state.bandUp.end(), 100.0);
    std::fill(state.bandDown.begin(), state.bandDown.end(), 100.0);
    PlannerChunkInput input;
    input.required = 3;
    input.fixedSet = true;
    input.combinable = false;
    for (int i = 1; i <= 3; ++i) {
        input.helperChunks.push_back(i);
        input.helperNodes.push_back(i);
        input.fractions.push_back(0.5);
    }
    input.destCandidates = {5, 6};
    auto planned = planChunk(state, input);
    ASSERT_TRUE(planned.has_value());
    EXPECT_FALSE(planned->plan.combinable);
    for (const auto &src : planned->plan.sources) {
        EXPECT_EQ(src.parent, kToDestination);
        EXPECT_DOUBLE_EQ(src.fraction, 0.5);
    }
}

TEST(PlanChunk, NoDestinationReturnsNullopt)
{
    auto state = PlannerState::make(10, 64.0);
    std::fill(state.bandUp.begin(), state.bandUp.end(), 100.0);
    std::fill(state.bandDown.begin(), state.bandDown.end(), 100.0);
    auto input = rsInput(4, 2, 10);
    input.destCandidates.clear();
    EXPECT_FALSE(planChunk(state, input).has_value());
}

} // namespace
} // namespace repair
} // namespace chameleon
