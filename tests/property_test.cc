/**
 * @file
 * Randomized property tests over the whole stack:
 *  - coding: random (k, m), random failure patterns, random helper
 *    subsets — repair and decode must be byte-exact whenever the
 *    pattern is recoverable;
 *  - plans: random trees evaluate byte-exactly; planner output over
 *    random bandwidth vectors is always a valid plan whose task
 *    counts balance;
 *  - network: byte conservation — every flow's bytes show up in the
 *    accounting of every resource on its path;
 *  - executor fuzz: random plans, random mid-flight retunes, pauses,
 *    and capacity changes — every chunk completes and the
 *    exactly-once contribution invariant (asserted internally) holds;
 *  - churn fuzz: random chaos schedules against a full repair
 *    session — no repair traffic ever crosses a dead node's links,
 *    and pending + in-flight + repaired + unrecoverable always sums
 *    to every chunk ever lost.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/stripe_table.hh"
#include "ec/factory.hh"
#include "ec/lrc_code.hh"
#include "ec/rs_code.hh"
#include "fault/fault.hh"
#include "repair/chameleon_planner.hh"
#include "repair/executor.hh"
#include "repair/plan.hh"
#include "repair/session.hh"
#include "repair/strategies.hh"
#include "util/rng.hh"

namespace chameleon {
namespace {

ec::Buffer
randomChunk(Rng &rng, std::size_t size)
{
    ec::Buffer b(size);
    for (auto &v : b)
        v = static_cast<uint8_t>(rng.below(256));
    return b;
}

std::vector<ec::Buffer>
randomStripe(Rng &rng, const ec::ErasureCode &code, std::size_t size)
{
    std::vector<ec::Buffer> data;
    for (int i = 0; i < code.k(); ++i)
        data.push_back(randomChunk(rng, size));
    auto parity = code.encode(data);
    std::vector<ec::Buffer> chunks = data;
    for (auto &p : parity)
        chunks.push_back(std::move(p));
    return chunks;
}

// --------------------------------------------------------- coding

using KmParam = std::pair<int, int>;

class RsRandomRepair : public ::testing::TestWithParam<KmParam>
{
};

TEST_P(RsRandomRepair, RandomHelperSubsetsAlwaysReconstruct)
{
    auto [k, m] = GetParam();
    ec::RsCode code(k, m);
    Rng rng(1000 + static_cast<uint64_t>(k * 31 + m));
    auto chunks = randomStripe(rng, code, 96);

    for (int trial = 0; trial < 40; ++trial) {
        auto failed = static_cast<ChunkIndex>(
            rng.below(static_cast<uint64_t>(code.n())));
        std::vector<ChunkIndex> survivors;
        for (ChunkIndex c = 0; c < code.n(); ++c)
            if (c != failed)
                survivors.push_back(c);
        // Uniform random k-subset.
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(k); ++i) {
            auto j = i + rng.below(survivors.size() - i);
            std::swap(survivors[i], survivors[j]);
        }
        survivors.resize(static_cast<std::size_t>(k));
        auto spec = code.specFor(failed, survivors);
        ASSERT_TRUE(spec.has_value());
        std::vector<ec::Buffer> helper_data;
        for (const auto &read : spec->reads)
            helper_data.push_back(
                chunks[static_cast<std::size_t>(read.helper)]);
        EXPECT_EQ(code.repairCompute(*spec, helper_data),
                  chunks[static_cast<std::size_t>(failed)]);
    }
}

TEST_P(RsRandomRepair, RandomFailurePatternsDecodeIffRecoverable)
{
    auto [k, m] = GetParam();
    ec::RsCode code(k, m);
    Rng rng(2000 + static_cast<uint64_t>(k * 13 + m));
    auto chunks = randomStripe(rng, code, 48);

    for (int trial = 0; trial < 40; ++trial) {
        auto damaged = chunks;
        int failures = 1 + static_cast<int>(rng.below(
            static_cast<uint64_t>(code.n())));
        std::set<ChunkIndex> failed;
        while (static_cast<int>(failed.size()) < failures) {
            auto f = static_cast<ChunkIndex>(
                rng.below(static_cast<uint64_t>(code.n())));
            if (failed.insert(f).second)
                damaged[static_cast<std::size_t>(f)].clear();
        }
        bool ok = code.decode(damaged);
        // MDS: recoverable exactly when failures <= m.
        EXPECT_EQ(ok, failures <= m) << "failures=" << failures;
        if (ok) {
            EXPECT_EQ(damaged, chunks);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsRandomRepair,
    ::testing::Values(KmParam{3, 2}, KmParam{5, 3}, KmParam{7, 3},
                      KmParam{9, 4}, KmParam{11, 4}, KmParam{14, 6},
                      KmParam{20, 8}, KmParam{24, 8}),
    [](const auto &info) {
        return "RS_" + std::to_string(info.param.first) + "_" +
               std::to_string(info.param.second);
    });

using KlmParam = std::tuple<int, int, int>;

class LrcRandomRepair : public ::testing::TestWithParam<KlmParam>
{
};

TEST_P(LrcRandomRepair, EveryChunkRepairsFromEveryFullSurvivorSet)
{
    auto [k, l, m] = GetParam();
    ec::LrcCode code(k, l, m);
    Rng rng(3000 + static_cast<uint64_t>(k));
    auto chunks = randomStripe(rng, code, 64);
    for (ChunkIndex failed = 0; failed < code.n(); ++failed) {
        std::vector<ChunkIndex> avail;
        for (ChunkIndex c = 0; c < code.n(); ++c)
            if (c != failed)
                avail.push_back(c);
        auto spec = code.makeRepairSpec(failed, avail, rng);
        std::vector<ec::Buffer> helper_data;
        for (const auto &read : spec.reads)
            helper_data.push_back(
                chunks[static_cast<std::size_t>(read.helper)]);
        EXPECT_EQ(code.repairCompute(spec, helper_data),
                  chunks[static_cast<std::size_t>(failed)])
            << code.name() << " chunk " << failed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LrcRandomRepair,
    ::testing::Values(KlmParam{4, 2, 2}, KlmParam{6, 2, 2},
                      KlmParam{6, 3, 3}, KlmParam{12, 4, 2},
                      KlmParam{12, 2, 4}),
    [](const auto &info) {
        return "LRC_" + std::to_string(std::get<0>(info.param)) + "_" +
               std::to_string(std::get<1>(info.param)) + "_" +
               std::to_string(std::get<2>(info.param));
    });

/** Wide-matrix leg (Exp#17): the multi-group LRC's canRepair verdict
 * must agree with full decode on random multi-failure patterns, and
 * repairable patterns must restore every byte. */
TEST(WideCodeProperty, MultiGroupLrcRandomPatternsDecodeIffCanRepair)
{
    auto code = ec::makeCode("lrc(24,4,2,2)");
    Rng rng(4000);
    auto chunks = randomStripe(rng, *code, 48);
    for (int trial = 0; trial < 60; ++trial) {
        int failures = 1 + static_cast<int>(rng.below(6));
        std::set<ChunkIndex> failed;
        auto damaged = chunks;
        while (static_cast<int>(failed.size()) < failures) {
            auto f = static_cast<ChunkIndex>(
                rng.below(static_cast<uint64_t>(code->n())));
            if (failed.insert(f).second)
                damaged[static_cast<std::size_t>(f)].clear();
        }
        std::vector<ChunkIndex> pattern(failed.begin(), failed.end());
        bool ok = code->decode(damaged);
        EXPECT_EQ(ok, code->canRepair(pattern))
            << "failures=" << failures;
        if (ok) {
            EXPECT_EQ(damaged, chunks);
        }
    }
}

// ----------------------------------------------------------- plans

TEST(PlanProperty, RandomTreesEvaluateByteExactly)
{
    Rng rng(77);
    for (int trial = 0; trial < 60; ++trial) {
        int k = 3 + static_cast<int>(rng.below(8));
        int m = 2 + static_cast<int>(rng.below(3));
        ec::RsCode code(k, m);
        auto chunks = randomStripe(rng, code, 64);
        auto failed = static_cast<ChunkIndex>(
            rng.below(static_cast<uint64_t>(code.n())));
        std::vector<ChunkIndex> avail;
        for (ChunkIndex c = 0; c < code.n(); ++c)
            if (c != failed)
                avail.push_back(c);
        auto spec = code.makeRepairSpec(failed, avail, rng);

        // Random in-tree: parent of source i drawn from {later
        // sources} or destination (guarantees acyclicity).
        repair::ChunkRepairPlan plan;
        plan.stripe = 0;
        plan.failedChunk = failed;
        plan.destination = 100;
        int idx = 0;
        for (const auto &read : spec.reads) {
            repair::PlanSource src;
            src.node = idx; // synthetic distinct nodes
            src.chunk = read.helper;
            src.coeff = read.coeff;
            src.fraction = read.fraction;
            int later = static_cast<int>(spec.reads.size()) - idx - 1;
            if (later > 0 && rng.chance(0.6)) {
                src.parent = idx + 1 +
                             static_cast<int>(rng.below(
                                 static_cast<uint64_t>(later)));
            } else {
                src.parent = repair::kToDestination;
            }
            plan.sources.push_back(src);
            ++idx;
        }
        plan.validate();
        EXPECT_EQ(repair::evaluatePlan(plan, chunks),
                  chunks[static_cast<std::size_t>(failed)])
            << "trial " << trial;
    }
}

TEST(PlannerProperty, RandomBandwidthsYieldValidBalancedPlans)
{
    Rng rng(88);
    for (int trial = 0; trial < 200; ++trial) {
        int nodes = 14 + static_cast<int>(rng.below(30));
        int k = 4 + static_cast<int>(rng.below(9));
        int m = 2 + static_cast<int>(rng.below(4));
        if (k + m + 1 > nodes)
            continue;
        auto state = repair::PlannerState::make(nodes, 64.0);
        for (int i = 0; i < nodes; ++i) {
            state.bandUp[static_cast<std::size_t>(i)] =
                rng.uniform(1.0, 100.0);
            state.bandDown[static_cast<std::size_t>(i)] =
                rng.uniform(1.0, 100.0);
        }
        state.relayTaskPenalty = rng.uniform(0.0, 2.0);

        repair::PlannerChunkInput input;
        input.required = k;
        input.combinable = true;
        // Helpers on nodes 1..k+m-1, destination candidates the rest.
        for (int i = 1; i < k + m; ++i) {
            input.helperChunks.push_back(i);
            input.helperNodes.push_back(i);
            input.fractions.push_back(1.0);
        }
        for (int i = k + m; i < nodes; ++i)
            input.destCandidates.push_back(i);

        auto planned = repair::planChunk(state, input);
        ASSERT_TRUE(planned.has_value());
        planned->plan.validate(); // panics on malformed output
        EXPECT_EQ(planned->plan.sources.size(),
                  static_cast<std::size_t>(k));
        EXPECT_GT(planned->estimatedTime, 0.0);
        EXPECT_EQ(planned->edgeExpectation.size(),
                  planned->plan.sources.size());
        // Sources are distinct nodes drawn from the candidates, and
        // the destination is a genuine candidate.
        std::set<NodeId> seen;
        for (const auto &src : planned->plan.sources) {
            EXPECT_TRUE(seen.insert(src.node).second);
            EXPECT_TRUE(std::find(input.helperNodes.begin(),
                                  input.helperNodes.end(), src.node) !=
                        input.helperNodes.end());
        }
        EXPECT_TRUE(std::find(input.destCandidates.begin(),
                              input.destCandidates.end(),
                              planned->plan.destination) !=
                    input.destCandidates.end());
    }
}

TEST(PlannerProperty, TaskCountsBalancePerChunk)
{
    Rng rng(89);
    for (int trial = 0; trial < 100; ++trial) {
        int nodes = 20;
        int k = 4 + static_cast<int>(rng.below(7));
        auto state = repair::PlannerState::make(nodes, 64.0);
        for (int i = 0; i < nodes; ++i) {
            state.bandUp[static_cast<std::size_t>(i)] =
                rng.uniform(1.0, 100.0);
            state.bandDown[static_cast<std::size_t>(i)] =
                rng.uniform(1.0, 100.0);
        }
        repair::PlannerChunkInput input;
        input.required = k;
        input.combinable = true;
        for (int i = 1; i < k + 3; ++i) {
            input.helperChunks.push_back(i);
            input.helperNodes.push_back(i);
            input.fractions.push_back(1.0);
        }
        for (int i = k + 3; i < nodes; ++i)
            input.destCandidates.push_back(i);
        auto planned = repair::planChunk(state, input);
        ASSERT_TRUE(planned.has_value());
        int up = 0, down = 0;
        for (int t : state.taskUp)
            up += t;
        for (int t : state.taskDown)
            down += t;
        EXPECT_EQ(up, k) << "trial " << trial;
        EXPECT_EQ(down, k) << "trial " << trial;
    }
}

// --------------------------------------------------------- network

TEST(NetworkProperty, ByteConservationAcrossRandomFlows)
{
    Rng rng(99);
    sim::Simulator sim;
    sim::FlowNetwork net(sim, 1.0);
    std::vector<sim::ResourceId> resources;
    for (int i = 0; i < 12; ++i)
        resources.push_back(
            net.addResource("r" + std::to_string(i),
                            rng.uniform(10.0, 100.0)));

    std::vector<Bytes> expected(resources.size(), 0.0);
    for (int f = 0; f < 120; ++f) {
        // Random 1-3 hop path of distinct resources.
        std::vector<sim::ResourceId> path;
        int hops = 1 + static_cast<int>(rng.below(3));
        while (static_cast<int>(path.size()) < hops) {
            auto r = resources[rng.below(resources.size())];
            if (std::find(path.begin(), path.end(), r) == path.end())
                path.push_back(r);
        }
        Bytes size = rng.uniform(10.0, 500.0);
        for (auto r : path)
            expected[static_cast<std::size_t>(r)] += size;
        double start = rng.uniform(0.0, 20.0);
        sim.schedule(start, [&net, path, size] {
            net.startFlow(path, size, sim::FlowTag::kRepair, nullptr);
        });
    }
    sim.run();
    for (std::size_t r = 0; r < resources.size(); ++r) {
        EXPECT_NEAR(net.taggedBytes(resources[r],
                                    sim::FlowTag::kRepair),
                    expected[r], 1e-3)
            << "resource " << r;
        // Windowed accounting agrees with the cumulative counter.
        EXPECT_NEAR(net.usage(resources[r], sim::FlowTag::kRepair)
                        .totalBytes(),
                    expected[r], 1e-3);
    }
}

TEST(NetworkProperty, RatesNeverExceedCapacityAtEvents)
{
    Rng rng(101);
    sim::Simulator sim;
    sim::FlowNetwork net(sim, 1.0);
    std::vector<sim::ResourceId> resources;
    std::vector<Rate> caps;
    for (int i = 0; i < 8; ++i) {
        caps.push_back(rng.uniform(5.0, 50.0));
        net.addResource("r" + std::to_string(i), caps.back());
        resources.push_back(static_cast<sim::ResourceId>(i));
    }
    std::vector<sim::FlowId> flows;
    for (int f = 0; f < 60; ++f) {
        std::vector<sim::ResourceId> path = {
            resources[rng.below(8)],
        };
        auto second = resources[rng.below(8)];
        if (second != path[0])
            path.push_back(second);
        flows.push_back(net.startFlow(path, rng.uniform(50.0, 200.0),
                                      sim::FlowTag::kForeground,
                                      nullptr));
    }
    // At this instant, per-resource aggregate rate <= capacity.
    for (std::size_t r = 0; r < resources.size(); ++r) {
        Rate total =
            net.currentTagRate(resources[r],
                               sim::FlowTag::kForeground) +
            net.currentTagRate(resources[r], sim::FlowTag::kRepair);
        EXPECT_LE(total, caps[r] + 1e-9) << "resource " << r;
    }
    sim.run();
}

// ---------------------------------------------------- executor fuzz

TEST(ExecutorFuzz, RandomPlansWithRandomInterventionsComplete)
{
    // 30 randomized scenarios; the executor's internal exactly-once
    // assertions provide the correctness oracle.
    for (uint64_t seed = 1; seed <= 30; ++seed) {
        Rng rng(seed * 7919);
        sim::Simulator sim;
        cluster::ClusterConfig ccfg;
        ccfg.numNodes = 14;
        ccfg.numClients = 0;
        ccfg.uplinkBw = ccfg.downlinkBw = 100.0;
        ccfg.diskBw = 300.0;
        cluster::Cluster cluster(sim, ccfg);
        auto code = ec::makeRs(4 + static_cast<int>(rng.below(4)), 3);
        cluster::StripeTable stripes(code, 14);
        stripes.createStripes(8, rng);
        repair::ExecutorConfig ecfg;
        ecfg.chunkSize = 64.0;
        ecfg.sliceSize = 4.0 + static_cast<double>(rng.below(12));
        ecfg.nodeUploadSlots = 1 + static_cast<int>(rng.below(3));
        ecfg.relayOverheadPerMiB = 0.0; // sizes here are tiny bytes
        repair::RepairExecutor exec(cluster, ecfg);

        int completed = 0;
        std::vector<repair::RepairId> ids;
        int launched = 0;
        for (StripeId s = 0; s < 6; ++s) {
            auto failed = static_cast<ChunkIndex>(
                rng.below(static_cast<uint64_t>(code->n())));
            stripes.markLost(s, failed);
            auto topo = static_cast<repair::Topology>(rng.below(3));
            auto plan = repair::makeBaselinePlan(stripes, {s, failed},
                                                 topo, {}, rng);
            ids.push_back(exec.launch(
                plan, [&](const repair::ChunkRepairPlan &, SimTime) {
                    ++completed;
                }));
            ++launched;
        }

        // Random interventions sprinkled over the run.
        for (int i = 0; i < 25; ++i) {
            double when = rng.uniform(0.05, 6.0);
            int action = static_cast<int>(rng.below(4));
            auto id = ids[rng.below(ids.size())];
            int edge = static_cast<int>(rng.below(4));
            NodeId node = static_cast<NodeId>(rng.below(14));
            sim.schedule(when, [&, action, id, edge, node] {
                switch (action) {
                  case 0:
                    if (exec.chunkActive(id) &&
                        exec.plan(id).combinable &&
                        edge < static_cast<int>(
                                   exec.plan(id).sources.size()))
                        exec.retuneEdge(id, edge);
                    break;
                  case 1:
                    if (exec.chunkActive(id))
                        exec.pauseChunk(id);
                    break;
                  case 2:
                    if (exec.chunkActive(id))
                        exec.resumeChunk(id);
                    break;
                  case 3: {
                    auto link = cluster.uplink(node);
                    cluster.network().setCapacity(
                        link, cluster.network().capacity(link) > 50
                                  ? 5.0
                                  : 100.0);
                    break;
                  }
                }
            });
        }
        // Make sure everything paused eventually resumes.
        sim.schedule(8.0, [&] {
            for (auto id : ids)
                if (exec.chunkActive(id))
                    exec.resumeChunk(id);
        });
        sim.schedule(20.0, [&] {
            for (NodeId n = 0; n < 14; ++n)
                cluster.network().setCapacity(cluster.uplink(n),
                                              100.0);
        });
        sim.run(2000.0);
        EXPECT_EQ(completed, launched) << "seed " << seed;
    }
}

// ------------------------------------------------------ churn fuzz

TEST(ChurnFuzz, RandomFaultSchedulesKeepRepairInvariants)
{
    // 20 randomized chaos runs. Two invariants, checked continuously:
    //  1. no repair traffic on a dead node's links (the executor
    //     additionally asserts this at every flow launch);
    //  2. chunk accounting closes — pending + in-flight + repaired +
    //     unrecoverable equals every chunk ever lost, at all times.
    // On failure the chaos seed lands in chaos_seed_churnfuzz.txt
    // (per-suite name: scale_test.cc writes its own seed files, and
    // parallel ctest runs must not clobber each other's repro) so CI
    // can attach it to the run.
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("chaos seed " + std::to_string(seed));
        Rng rng(seed * 104729);
        sim::Simulator sim;
        cluster::ClusterConfig ccfg;
        ccfg.numNodes = 14 + static_cast<int>(rng.below(6));
        ccfg.numClients = 0;
        ccfg.uplinkBw = ccfg.downlinkBw = 100.0;
        ccfg.diskBw = 300.0;
        cluster::Cluster cluster(sim, ccfg);
        int k = 4 + static_cast<int>(rng.below(4));
        int m = 2 + static_cast<int>(rng.below(2));
        auto code = ec::makeRs(k, m);
        cluster::StripeTable stripes(code, ccfg.numNodes);
        stripes.createStripes(8, rng);
        repair::ExecutorConfig ecfg;
        ecfg.chunkSize = 64.0;
        ecfg.sliceSize = 8.0;
        ecfg.relayOverheadPerMiB = 0.0;
        repair::RepairExecutor exec(cluster, ecfg);

        Rng plan_rng(seed * 31);
        repair::RepairSession session(
            stripes, exec,
            [&](const cluster::FailedChunk &fc,
                const std::vector<NodeId> &reserved) {
                auto topo = static_cast<repair::Topology>(
                    plan_rng.below(3));
                return repair::makeBaselinePlan(stripes, fc, topo,
                                                reserved, plan_rng);
            });

        auto checkInvariants = [&] {
            EXPECT_EQ(session.pendingCount() +
                          session.inFlightCount() +
                          session.chunksRepaired() +
                          session.chunksUnrecoverable(),
                      session.totalChunks());
            for (NodeId n = 0; n < ccfg.numNodes; ++n) {
                if (!cluster.nodeDown(n))
                    continue;
                EXPECT_EQ(cluster.network().currentTagRate(
                              cluster.uplink(n),
                              sim::FlowTag::kRepair),
                          0.0)
                    << "repair traffic out of dead node " << n;
                EXPECT_EQ(cluster.network().currentTagRate(
                              cluster.downlink(n),
                              sim::FlowTag::kRepair),
                          0.0)
                    << "repair traffic into dead node " << n;
            }
        };

        fault::InjectorHooks hooks;
        hooks.onCrash = [&](NodeId node,
                            const std::vector<cluster::FailedChunk>
                                &lost) {
            session.onNodeCrash(node, lost);
            checkInvariants();
        };
        fault::FaultInjector injector(cluster, stripes, hooks);
        // Never crash below k+1 nodes so most runs stay recoverable
        // while some stripes still tip into unrecoverable.
        injector.setMinLiveNodes(k + 1);

        fault::ChaosConfig chaos;
        chaos.crashRate = 0.15;
        chaos.slowDiskRate = 0.1;
        chaos.linkRate = 0.25;
        chaos.horizon = 12.0;
        chaos.meanCrashDowntime = 5.0;
        auto schedule =
            fault::generateChaos(chaos, ccfg.numNodes, seed);

        auto initial = stripes.failNode(0);
        cluster.markNodeDown(0);
        injector.arm(schedule, rng.split());
        session.enqueue(initial);

        // Sprinkle standalone invariant probes across the run (fixed
        // times, so they add no nondeterminism).
        for (int i = 1; i <= 40; ++i)
            sim.schedule(i * 0.5, checkInvariants);

        sim.run(2000.0);

        EXPECT_TRUE(session.finished());
        EXPECT_EQ(session.chunksRepaired() +
                      session.chunksUnrecoverable(),
                  session.totalChunks());
        checkInvariants();

        if (::testing::Test::HasFailure()) {
            std::ofstream("chaos_seed_churnfuzz.txt")
                << seed << "\n" << schedule.str() << "\n";
            std::fprintf(stderr,
                         "churn fuzz failed; chaos seed %llu "
                         "(schedule in chaos_seed_churnfuzz.txt)\n",
                         static_cast<unsigned long long>(seed));
            break;
        }
    }
}

TEST(ChurnFuzz, BitRotChaosNeverAcceptsCorruptHelpers)
{
    // 15 randomized bit-rot + crash runs with the executor verify
    // hooks wired the way the runtime wires them. Invariants:
    //  1. a repair never *completes* against a ground-truth corrupt
    //     helper — verify-on-read/after-decode must abort it first,
    //     so an accepted repair always leaves a clean chunk;
    //  2. accounting still closes after rot-promoted losses grow the
    //     work list mid-run;
    //  3. at the end every surfaced corruption is repaired or
    //     declared unrecoverable, and no accepted chunk is corrupt.
    for (uint64_t seed = 1; seed <= 15; ++seed) {
        SCOPED_TRACE("bitrot chaos seed " + std::to_string(seed));
        Rng rng(seed * 130363);
        sim::Simulator sim;
        cluster::ClusterConfig ccfg;
        ccfg.numNodes = 14 + static_cast<int>(rng.below(6));
        ccfg.numClients = 0;
        ccfg.uplinkBw = ccfg.downlinkBw = 100.0;
        ccfg.diskBw = 300.0;
        cluster::Cluster cluster(sim, ccfg);
        int k = 4 + static_cast<int>(rng.below(4));
        int m = 2 + static_cast<int>(rng.below(2));
        auto code = ec::makeRs(k, m);
        cluster::StripeTable stripes(code, ccfg.numNodes);
        stripes.createStripes(8, rng);
        repair::ExecutorConfig ecfg;
        ecfg.chunkSize = 64.0;
        ecfg.sliceSize = 8.0;
        ecfg.relayOverheadPerMiB = 0.0;
        repair::RepairExecutor exec(cluster, ecfg);

        Rng plan_rng(seed * 43);
        repair::RepairSession session(
            stripes, exec,
            [&](const cluster::FailedChunk &fc,
                const std::vector<NodeId> &reserved) {
                auto topo = static_cast<repair::Topology>(
                    plan_rng.below(3));
                return repair::makeBaselinePlan(stripes, fc, topo,
                                                reserved, plan_rng);
            });

        int rotInjected = 0, rotDetected = 0;
        std::set<std::pair<StripeId, ChunkIndex>> surfaced;
        auto surface = [&](StripeId stripe, ChunkIndex chunk) {
            // Promote + enqueue exactly once (scrub-detect shape);
            // deferred, since verify hooks fire inside executor
            // launch paths.
            if (stripes.chunkLost(stripe, chunk))
                return;
            ++rotDetected;
            surfaced.insert({stripe, chunk});
            stripes.markLost(stripe, chunk);
            const cluster::FailedChunk fc{stripe, chunk};
            sim.scheduleAfter(0.0, [&session, fc] {
                session.enqueue({fc});
            });
        };
        repair::RepairExecutor::IntegrityHooks ih;
        ih.verifySource = [&](StripeId stripe, ChunkIndex chunk,
                              NodeId) {
            if (!stripes.chunkCorrupt(stripe, chunk))
                return true;
            surface(stripe, chunk);
            return false;
        };
        ih.verifyDecoded =
            [&](const repair::ChunkRepairPlan &plan) -> NodeId {
            for (const auto &src : plan.sources) {
                if (stripes.chunkCorrupt(plan.stripe, src.chunk)) {
                    surface(plan.stripe, src.chunk);
                    return src.node;
                }
            }
            return kInvalidNode;
        };
        exec.setIntegrityHooks(std::move(ih));

        session.setOutcomeHook([&](const cluster::FailedChunk &fc,
                                   bool repaired) {
            if (repaired) {
                // Invariant 1: an accepted repair is never corrupt —
                // a corrupt helper would have been rejected and the
                // corrupt chunk itself is rewritten clean.
                EXPECT_FALSE(
                    stripes.chunkCorrupt(fc.stripe, fc.chunk))
                    << "accepted corrupt chunk " << fc.stripe << "/"
                    << fc.chunk;
            }
            // Terminal outcome: the surfaced corruption is settled
            // (the same chunk may be freshly re-rotted later — a
            // *new* silent corruption, surfaced separately).
            surfaced.erase({fc.stripe, fc.chunk});
        });

        auto checkAccounting = [&] {
            EXPECT_EQ(session.pendingCount() +
                          session.inFlightCount() +
                          session.chunksRepaired() +
                          session.chunksUnrecoverable(),
                      session.totalChunks());
        };

        fault::InjectorHooks hooks;
        hooks.onCrash = [&](NodeId node,
                            const std::vector<cluster::FailedChunk>
                                &lost) {
            session.onNodeCrash(node, lost);
            checkAccounting();
        };
        hooks.onBitRot = [&](cluster::FailedChunk, NodeId) {
            ++rotInjected;
        };
        fault::FaultInjector injector(cluster, stripes, hooks);
        injector.setMinLiveNodes(k + 1);

        fault::ChaosConfig chaos;
        chaos.crashRate = 0.08;
        chaos.bitrotRate = 0.6;
        chaos.horizon = 12.0;
        chaos.meanCrashDowntime = 5.0;
        auto schedule =
            fault::generateChaos(chaos, ccfg.numNodes, seed);

        auto initial = stripes.failNode(0);
        cluster.markNodeDown(0);
        injector.arm(schedule, rng.split());
        session.enqueue(initial);

        for (int i = 1; i <= 40; ++i)
            sim.schedule(i * 0.5, checkAccounting);

        sim.run(2000.0);

        EXPECT_TRUE(session.finished());
        EXPECT_EQ(session.chunksRepaired() +
                      session.chunksUnrecoverable(),
                  session.totalChunks());
        checkAccounting();
        EXPECT_LE(rotDetected, rotInjected);
        // Invariant 3: every surfaced corruption reached a terminal
        // outcome (repaired clean or declared unrecoverable); rot
        // that is still flagged at the end was never surfaced — it
        // stays silent because no scrubber runs in this test, and it
        // was never accepted as a helper (invariant 1).
        EXPECT_TRUE(surfaced.empty())
            << surfaced.size() << " surfaced corruptions never "
            << "reached a terminal outcome";

        if (::testing::Test::HasFailure()) {
            std::ofstream("chaos_seed_bitrotfuzz.txt")
                << seed << "\n" << schedule.str() << "\n";
            std::fprintf(stderr,
                         "bitrot fuzz failed; chaos seed %llu "
                         "(schedule in chaos_seed_bitrotfuzz.txt)\n",
                         static_cast<unsigned long long>(seed));
            break;
        }
    }
}

} // namespace
} // namespace chameleon
