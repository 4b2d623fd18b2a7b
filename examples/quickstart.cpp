/**
 * @file
 * Quickstart: encode a stripe with RS(4,2), lose a chunk, and repair
 * it on a simulated cluster with ChameleonEC — the smallest
 * end-to-end tour of the library (coding layer, cluster model,
 * scheduler), with byte-exact verification of the repaired data.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "cluster/cluster.hh"
#include "cluster/stripe_table.hh"
#include "ec/factory.hh"
#include "repair/chameleon_scheduler.hh"
#include "repair/executor.hh"
#include "repair/monitor.hh"
#include "util/rng.hh"

using namespace chameleon;

int
main()
{
    // ---- 1. The coding layer: encode a stripe, break it, decode.
    auto code = ec::makeRs(4, 2);
    Rng rng(7);
    std::vector<ec::Buffer> data(4);
    for (auto &chunk : data) {
        chunk.resize(1024);
        for (auto &byte : chunk)
            byte = static_cast<uint8_t>(rng.below(256));
    }
    auto parity = code->encode(data);
    std::vector<ec::Buffer> stripe = data;
    for (auto &p : parity)
        stripe.push_back(std::move(p));
    std::printf("encoded a %s stripe: %d data + %d parity chunks\n",
                code->name().c_str(), code->k(), code->m());

    auto damaged = stripe;
    damaged[1].clear();
    damaged[4].clear();
    bool ok = code->decode(damaged);
    std::printf("decode after losing 2 chunks: %s, byte-exact: %s\n",
                ok ? "ok" : "FAILED",
                damaged == stripe ? "yes" : "NO");

    // ---- 2. The cluster simulation: a 10-node cluster, one failed
    //         node, ChameleonEC repairing every lost chunk.
    sim::Simulator sim;
    cluster::ClusterConfig ccfg;
    ccfg.numNodes = 10;
    ccfg.numClients = 1;
    ccfg.uplinkBw = 2.5 * units::Gbps;
    ccfg.downlinkBw = 2.5 * units::Gbps;
    cluster::Cluster cluster(sim, ccfg);

    cluster::StripeTable stripes(code, ccfg.numNodes);
    stripes.createStripes(12, rng);

    repair::RepairExecutor executor(cluster, repair::ExecutorConfig{});
    repair::BandwidthMonitor monitor(cluster);
    monitor.start();

    auto lost = stripes.failNode(0);
    std::printf("\nnode 0 failed: %zu chunks lost\n", lost.size());

    repair::ChameleonScheduler scheduler(stripes, executor, monitor,
                                         repair::ChameleonConfig{},
                                         rng.split());
    scheduler.enqueue(lost);
    sim.run(600.0);

    if (!scheduler.finished()) {
        std::printf("repair did not finish (unexpected)\n");
        return 1;
    }
    std::printf("repaired %d chunks in %.1f s -> %.1f MB/s; "
                "phases=%d retunes=%d reorders=%d\n",
                scheduler.chunksRepaired(),
                scheduler.finishTime() - scheduler.startTime(),
                scheduler.throughput() / 1e6, scheduler.phasesRun(),
                scheduler.retunes(), scheduler.reorders());
    std::printf("remaining lost chunks: %zu\n",
                stripes.lostChunks().size());
    return 0;
}
