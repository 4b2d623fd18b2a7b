/**
 * @file
 * Scenario: full-node repair under live foreground traffic — the
 * paper's headline use case. A 20-node cluster serves a YCSB-A-like
 * workload while one node dies; we repair it with conventional
 * repair and with ChameleonEC and compare repair throughput and the
 * foreground's P99 latency, using the same experiment harness the
 * bench binaries use.
 *
 * Run: ./build/examples/full_node_repair
 */

#include <cstdio>

#include "runtime/experiment.hh"

using namespace chameleon;
using namespace chameleon::runtime;

int
main()
{
    ExperimentConfig cfg;
    cfg.chunksToRepair = 40;
    cfg.exec.sliceSize = 2 * units::MiB;
    cfg.trace = traffic::ycsbA();
    cfg.seed = 1;

    std::printf("full-node repair of %d x 64 MiB chunks on a "
                "%d-node cluster, YCSB-A foreground\n\n",
                cfg.chunksToRepair, cfg.cluster.numNodes);

    for (auto algo : {Algorithm::kCr, Algorithm::kChameleon}) {
        auto result = runExperiment(algo, cfg);
        std::printf("%-12s: repaired %d chunks in %6.1f s "
                    "(%6.1f MB/s), foreground P99 %.1f ms\n",
                    algorithmName(algo).c_str(),
                    result.chunksRepaired, result.repairTime,
                    result.repairThroughput / 1e6,
                    result.p99LatencyMs);
        if (algo == Algorithm::kChameleon) {
            std::printf("              phases=%d retunes=%d "
                        "reorders=%d\n",
                        result.phases, result.retunes,
                        result.reorders);
        }
    }

    std::printf("\nChameleonEC dispatches repair tasks onto links "
                "the foreground leaves idle, so it repairs faster "
                "AND keeps request latency lower.\n");
    return 0;
}
