/**
 * @file
 * Deterministic fault-injection scenarios: fixed-seed crashes mid
 * repair (of a source and of a destination), flapping links,
 * unrecoverable stripes, delayed rejoin, and schedule/chaos
 * determinism. Every scenario asserts the repair layer's contract
 * under churn: each lost chunk ends repaired or reported
 * unrecoverable, repaired chunks are byte-exact under their final
 * (re-planned) repair plan, no repaired chunk lands on a dead node,
 * and two same-seed runs produce identical fault logs and outcomes.
 */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/stripe_table.hh"
#include "ec/factory.hh"
#include "fault/fault.hh"
#include "repair/executor.hh"
#include "repair/plan.hh"
#include "repair/session.hh"
#include "repair/strategies.hh"
#include "telemetry/telemetry.hh"
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

/**
 * A small, fast churn rig: RS(4,2) stripes over 12 nodes with real
 * per-stripe payloads, a repair session whose plan factory records
 * the last plan launched per chunk (the one that completed, since
 * every abort re-plans), and helpers that crash nodes the way the
 * injector does.
 */
class ChurnRig
{
  public:
    explicit ChurnRig(uint64_t seed = 11, int nodes = 12,
                      int stripe_count = 8)
        : cfg_(makeConfig(nodes)), cluster_(sim_, cfg_),
          code_(ec::makeRs(4, 2)), stripes_(code_, nodes),
          executor_(cluster_, repair::ExecutorConfig{64.0, 8.0}),
          planRng_(seed)
    {
        Rng rng(99);
        stripes_.createStripes(stripe_count, rng);
        Rng data_rng(5);
        for (int s = 0; s < stripe_count; ++s)
            data_.push_back(randomStripe(data_rng, *code_, 48));
    }

    static cluster::ClusterConfig
    makeConfig(int nodes)
    {
        cluster::ClusterConfig cfg;
        cfg.numNodes = nodes;
        cfg.numClients = 1;
        cfg.uplinkBw = 100.0;
        cfg.downlinkBw = 100.0;
        cfg.diskBw = 1000.0;
        cfg.usageWindow = 5.0;
        return cfg;
    }

    repair::RepairSession::PlanFn
    planFn(repair::Topology topo = repair::Topology::kStar)
    {
        return [this, topo](const cluster::FailedChunk &fc,
                            const std::vector<NodeId> &reserved) {
            auto plan = repair::makeBaselinePlan(stripes_, fc, topo,
                                                 reserved, planRng_);
            finalPlan_[{fc.stripe, fc.chunk}] = plan;
            return plan;
        };
    }

    /** Initial full-node failure (the repair's reason to exist). */
    std::vector<cluster::FailedChunk>
    failInitial(NodeId node)
    {
        auto lost = stripes_.failNode(node);
        cluster_.markNodeDown(node);
        queued_.insert(queued_.end(), lost.begin(), lost.end());
        return lost;
    }

    /** Mid-repair crash through the repair layer, in the same
     * order the injector applies one. */
    void
    crashNow(NodeId node, repair::RepairSession &session)
    {
        auto lost = stripes_.failNode(node);
        cluster_.markNodeDown(node);
        queued_.insert(queued_.end(), lost.begin(), lost.end());
        session.onNodeCrash(node, lost);
    }

    /**
     * The scenario contract: every queued chunk is either repaired —
     * relocated to a live node, byte-exact under its final plan —
     * or reported unrecoverable, in which case its stripe really is
     * short of helpers.
     */
    void
    verifyOutcome(const repair::RepairSession &session)
    {
        ASSERT_TRUE(session.finished());
        EXPECT_EQ(session.totalChunks(),
                  static_cast<int>(queued_.size()));
        EXPECT_EQ(session.chunksRepaired() +
                      session.chunksUnrecoverable(),
                  session.totalChunks());

        std::set<std::pair<StripeId, ChunkIndex>> unrecoverable;
        for (const auto &fc : session.unrecoverable())
            unrecoverable.insert({fc.stripe, fc.chunk});

        for (const auto &fc : queued_) {
            if (unrecoverable.count({fc.stripe, fc.chunk})) {
                EXPECT_LT(static_cast<int>(
                              stripes_.availableChunks(fc.stripe)
                                  .size()),
                          code_->k())
                    << "stripe " << fc.stripe
                    << " reported unrecoverable but has enough "
                       "helpers";
                continue;
            }
            EXPECT_FALSE(stripes_.chunkLost(fc.stripe, fc.chunk));
            NodeId where = stripes_.location(fc.stripe, fc.chunk);
            EXPECT_FALSE(cluster_.nodeDown(where))
                << "chunk repaired onto dead node " << where;

            auto it = finalPlan_.find({fc.stripe, fc.chunk});
            ASSERT_NE(it, finalPlan_.end());
            const auto &plan = it->second;
            EXPECT_EQ(plan.destination, where);
            for (const auto &src : plan.sources)
                EXPECT_FALSE(cluster_.nodeDown(src.node))
                    << "final plan reads from dead node "
                    << src.node;
            EXPECT_EQ(repair::evaluatePlan(
                          plan,
                          data_[static_cast<std::size_t>(fc.stripe)]),
                      data_[static_cast<std::size_t>(fc.stripe)]
                           [static_cast<std::size_t>(fc.chunk)])
                << "stripe " << fc.stripe << " chunk " << fc.chunk
                << " not byte-exact after re-plan";
        }
    }

    sim::Simulator sim_;
    cluster::ClusterConfig cfg_;
    cluster::Cluster cluster_;
    std::shared_ptr<const ec::ErasureCode> code_;
    cluster::StripeTable stripes_;
    repair::RepairExecutor executor_;
    Rng planRng_;
    std::vector<std::vector<ec::Buffer>> data_;
    /** Last plan launched per chunk (= the completing plan). */
    std::map<std::pair<StripeId, ChunkIndex>, repair::ChunkRepairPlan>
        finalPlan_;
    /** Every chunk ever handed to the session. */
    std::vector<cluster::FailedChunk> queued_;
};

// ------------------------------------------------- schedule & chaos

TEST(FaultSchedule, SpecRoundTrips)
{
    auto sched = fault::FaultSchedule::parse(
        "crash@30:node=3:dur=40;linkdeg@10:factor=0.2:dur=15;"
        "slowdisk@5:node=1:factor=0.5:dur=8;blackout@12:dur=6");
    ASSERT_EQ(sched.events.size(), 4u);
    // Parsing sorts by time: slowdisk@5, linkdeg@10, blackout@12,
    // crash@30.
    EXPECT_EQ(sched.events[0].kind, fault::FaultKind::kSlowDisk);
    EXPECT_EQ(sched.events[0].node, 1);
    EXPECT_DOUBLE_EQ(sched.events[0].at, 5.0);
    EXPECT_DOUBLE_EQ(sched.events[0].duration, 8.0);
    EXPECT_EQ(sched.events[1].kind, fault::FaultKind::kLinkDegrade);
    EXPECT_EQ(sched.events[1].node, kInvalidNode);
    EXPECT_EQ(sched.events[3].kind, fault::FaultKind::kNodeCrash);
    EXPECT_EQ(sched.events[3].node, 3);
    EXPECT_DOUBLE_EQ(sched.events[3].at, 30.0);
    EXPECT_DOUBLE_EQ(sched.events[3].duration, 40.0);

    auto reparsed = fault::FaultSchedule::parse(sched.str());
    ASSERT_EQ(reparsed.events.size(), sched.events.size());
    for (std::size_t i = 0; i < sched.events.size(); ++i) {
        EXPECT_EQ(reparsed.events[i].kind, sched.events[i].kind);
        EXPECT_EQ(reparsed.events[i].node, sched.events[i].node);
        EXPECT_DOUBLE_EQ(reparsed.events[i].at, sched.events[i].at);
        EXPECT_DOUBLE_EQ(reparsed.events[i].factor,
                         sched.events[i].factor);
        EXPECT_DOUBLE_EQ(reparsed.events[i].duration,
                         sched.events[i].duration);
    }
}

TEST(FaultSchedule, ChaosGenerationIsDeterministic)
{
    fault::ChaosConfig cfg = fault::ChaosConfig::fromRate(0.5, 60.0);
    auto a = fault::generateChaos(cfg, 20, 42);
    auto b = fault::generateChaos(cfg, 20, 42);
    ASSERT_EQ(a.events.size(), b.events.size());
    EXPECT_FALSE(a.events.empty());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_DOUBLE_EQ(a.events[i].at, b.events[i].at);
        EXPECT_DOUBLE_EQ(a.events[i].factor, b.events[i].factor);
    }
    // Sorted, inside the horizon.
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_GE(a.events[i].at, 0.0);
        EXPECT_LT(a.events[i].at, 60.0);
        if (i > 0) {
            EXPECT_GE(a.events[i].at, a.events[i - 1].at);
        }
    }
    // A different seed yields a different schedule.
    auto c = fault::generateChaos(cfg, 20, 43);
    bool differs = c.events.size() != a.events.size();
    for (std::size_t i = 0;
         !differs && i < std::min(a.events.size(), c.events.size());
         ++i)
        differs = a.events[i].at != c.events[i].at;
    EXPECT_TRUE(differs);
}

// ------------------------------------------------ crash scenarios

TEST(FaultScenario, CrashOfSourceMidRepair)
{
    ChurnRig rig;
    repair::RepairSession session(rig.stripes_, rig.executor_,
                                  rig.planFn());
    auto initial = rig.failInitial(0);
    session.enqueue(initial);

    // 1 s in, every first-wave star transfer (~2.6 s) is still in
    // flight; kill a node the first plan reads from.
    rig.sim_.scheduleAfter(1.0, [&] {
        ASSERT_FALSE(rig.finalPlan_.empty());
        NodeId victim = rig.finalPlan_.begin()->second.sources[0].node;
        rig.crashNow(victim, session);
    });
    rig.sim_.run();

    EXPECT_GE(session.crashReplans(), 1);
    // The crash's own losses joined the queue.
    EXPECT_GT(session.totalChunks(),
              static_cast<int>(initial.size()));
    rig.verifyOutcome(session);
}

TEST(FaultScenario, CrashOfDestinationInvalidatesItsWrites)
{
    ChurnRig rig;
    repair::RepairSession session(rig.stripes_, rig.executor_,
                                  rig.planFn());
    auto &aborts =
        telemetry::metrics().counter("repair.exec.aborts");
    int64_t aborts_before = aborts.value;

    session.enqueue(rig.failInitial(0));
    cluster::FailedChunk first{kInvalidNode, 0};
    NodeId victim = kInvalidNode;
    rig.sim_.scheduleAfter(1.0, [&] {
        ASSERT_FALSE(rig.finalPlan_.empty());
        first = {rig.finalPlan_.begin()->first.first,
                 rig.finalPlan_.begin()->first.second};
        victim = rig.finalPlan_.begin()->second.destination;
        rig.crashNow(victim, session);
    });
    rig.sim_.run();

    // The partially written destination was abandoned: the chunk's
    // repair re-planned somewhere else and the executor logged the
    // abort (which cancels the staged destination writes).
    ASSERT_NE(victim, kInvalidNode);
    EXPECT_GT(aborts.value, aborts_before);
    EXPECT_GE(session.crashReplans(), 1);
    EXPECT_NE(rig.stripes_.location(first.stripe, first.chunk),
              victim);
    rig.verifyOutcome(session);
}

TEST(FaultScenario, FlappingLinkRepairStillCompletes)
{
    ChurnRig rig;
    repair::RepairSession session(rig.stripes_, rig.executor_,
                                  rig.planFn());
    auto pending = rig.failInitial(0);
    ASSERT_FALSE(pending.empty());
    // Flap the uplink of a surviving helper of the first stripe.
    NodeId flappy = rig.stripes_.location(
        pending[0].stripe,
        rig.stripes_.availableChunks(pending[0].stripe)[0]);
    Rate original =
        rig.cluster_.network().capacity(rig.cluster_.uplink(flappy));

    fault::FaultSchedule sched;
    for (double at : {0.3, 1.1, 1.9, 2.7}) {
        fault::FaultEvent ev;
        ev.at = at;
        ev.kind = fault::FaultKind::kLinkDegrade;
        ev.node = flappy;
        ev.factor = 0.05;
        ev.duration = 0.4;
        sched.events.push_back(ev);
    }
    fault::FaultInjector injector(rig.cluster_, rig.stripes_);
    injector.arm(sched, Rng(1));

    session.enqueue(pending);
    rig.sim_.run();

    EXPECT_EQ(injector.faultsInjected(), 4);
    EXPECT_EQ(session.chunksUnrecoverable(), 0);
    EXPECT_NEAR(
        rig.cluster_.network().capacity(rig.cluster_.uplink(flappy)),
        original, original * 1e-9);
    rig.verifyOutcome(session);
}

TEST(FaultScenario, StripeShortOfHelpersReportsUnrecoverable)
{
    ChurnRig rig;
    repair::RepairSession session(rig.stripes_, rig.executor_,
                                  rig.planFn());

    // Stripe 0 loses three chunks (RS(4,2) tolerates two): the
    // initial failure plus two mid-repair crashes of its helpers.
    StripeId victim_stripe = 0;
    NodeId first = rig.stripes_.location(victim_stripe, 0);
    auto pending = rig.failInitial(first);
    session.enqueue(pending);

    rig.sim_.scheduleAfter(0.5, [&] {
        auto avail = rig.stripes_.availableChunks(victim_stripe);
        ASSERT_GE(avail.size(), 2u);
        rig.crashNow(rig.stripes_.location(victim_stripe, avail[0]),
                     session);
        rig.crashNow(rig.stripes_.location(victim_stripe, avail[1]),
                     session);
    });
    rig.sim_.run();

    ASSERT_TRUE(session.finished());
    EXPECT_GE(session.chunksUnrecoverable(), 1);
    bool stripe0_unrecoverable = false;
    for (const auto &fc : session.unrecoverable())
        stripe0_unrecoverable |= fc.stripe == victim_stripe;
    EXPECT_TRUE(stripe0_unrecoverable);
    EXPECT_LT(
        static_cast<int>(
            rig.stripes_.availableChunks(victim_stripe).size()),
        rig.code_->k());
    rig.verifyOutcome(session);
}

TEST(FaultScenario, CrashedNodeRejoinsEmptyAndAlive)
{
    ChurnRig rig;
    repair::RepairSession session(rig.stripes_, rig.executor_,
                                  rig.planFn());
    auto pending = rig.failInitial(0);

    NodeId victim = rig.stripes_.location(
        pending[0].stripe,
        rig.stripes_.availableChunks(pending[0].stripe)[0]);
    fault::FaultSchedule sched;
    fault::FaultEvent ev;
    ev.at = 1.0;
    ev.kind = fault::FaultKind::kNodeCrash;
    ev.node = victim;
    ev.duration = 3.0; // rejoin at t=4
    sched.events.push_back(ev);

    bool rejoined = false;
    fault::InjectorHooks hooks;
    hooks.onCrash = [&](NodeId node,
                        const std::vector<cluster::FailedChunk>
                            &lost) {
        rig.queued_.insert(rig.queued_.end(), lost.begin(),
                           lost.end());
        session.onNodeCrash(node, lost);
    };
    hooks.onRejoin = [&](NodeId node) {
        rejoined = true;
        EXPECT_EQ(node, victim);
    };
    fault::FaultInjector injector(rig.cluster_, rig.stripes_, hooks);
    injector.arm(sched, Rng(1));

    session.enqueue(pending);
    rig.sim_.run();

    EXPECT_TRUE(rejoined);
    EXPECT_FALSE(rig.cluster_.nodeDown(victim));
    // The node came back wiped: its chunks were repaired elsewhere
    // (or reported unrecoverable), not restored onto it by magic.
    ASSERT_EQ(injector.log().size(), 1u);
    EXPECT_EQ(injector.log()[0].kind, fault::FaultKind::kNodeCrash);
    EXPECT_TRUE(injector.log()[0].applied);
    for (const auto &fc : rig.queued_)
        if (!rig.stripes_.chunkLost(fc.stripe, fc.chunk) &&
            rig.stripes_.location(fc.stripe, fc.chunk) == victim)
            ADD_FAILURE() << "chunk restored onto wiped node";
    rig.verifyOutcome(session);
}

// ------------------------------------------------- reproducibility

namespace {

struct ChurnRunResult
{
    std::vector<fault::InjectedFault> log;
    SimTime finishTime = 0.0;
    int repaired = 0;
    int unrecoverable = 0;
    int replans = 0;
    int total = 0;

    bool operator==(const ChurnRunResult &) const = default;
};

ChurnRunResult
runChaosOnce(uint64_t chaos_seed)
{
    ChurnRig rig(/*seed=*/11);
    repair::RepairSession session(rig.stripes_, rig.executor_,
                                  rig.planFn());
    fault::InjectorHooks hooks;
    hooks.onCrash = [&](NodeId node,
                        const std::vector<cluster::FailedChunk>
                            &lost) {
        rig.queued_.insert(rig.queued_.end(), lost.begin(),
                           lost.end());
        session.onNodeCrash(node, lost);
    };
    fault::FaultInjector injector(rig.cluster_, rig.stripes_, hooks);

    fault::ChaosConfig cfg;
    cfg.crashRate = 0.08;
    cfg.linkRate = 0.2;
    cfg.slowDiskRate = 0.1;
    cfg.horizon = 15.0;
    cfg.meanCrashDowntime = 4.0;
    auto sched =
        fault::generateChaos(cfg, rig.cfg_.numNodes, chaos_seed);

    auto pending = rig.failInitial(0);
    injector.arm(sched, Rng(chaos_seed + 1));
    session.enqueue(pending);
    rig.sim_.run();

    rig.verifyOutcome(session);
    ChurnRunResult out;
    out.log = injector.log();
    out.finishTime = session.finishTime();
    out.repaired = session.chunksRepaired();
    out.unrecoverable = session.chunksUnrecoverable();
    out.replans = session.crashReplans();
    out.total = session.totalChunks();
    return out;
}

} // namespace

TEST(FaultScenario, SameSeedRunsProduceIdenticalTimelines)
{
    auto a = runChaosOnce(1234);
    auto b = runChaosOnce(1234);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.log.empty());
    EXPECT_EQ(a.repaired + a.unrecoverable, a.total);
}

} // namespace
} // namespace chameleon
