/**
 * @file
 * Scenario: degraded reads — a client requests a chunk that is
 * temporarily unavailable, and the repair sits on the read's
 * critical path (Exp#10 of the paper). We repair the same chunk
 * with each algorithm and report the degraded-read latency, plus
 * what happens when a straggler appears mid-read and ChameleonEC
 * re-tunes around it.
 *
 * Run: ./build/examples/degraded_read
 */

#include <cstdio>

#include "runtime/experiment.hh"
#include "ec/factory.hh"

using namespace chameleon;
using namespace chameleon::runtime;

int
main()
{
    std::printf("degraded read: single-chunk repair on the critical "
                "path (RS(6,3))\n\n");
    for (auto algo : {Algorithm::kCr, Algorithm::kPpr,
                      Algorithm::kEcpipe, Algorithm::kChameleon}) {
        ExperimentConfig cfg;
        cfg.code = ec::makeRs(6, 3);
        cfg.chunksToRepair = 1;
        cfg.exec.sliceSize = 1 * units::MiB;
        cfg.trace = traffic::ycsbA();
        cfg.chameleon.tPhase = 5.0; // react quickly for a hot read
        cfg.seed = 3;
        auto r = runExperiment(algo, cfg);
        std::printf("%-12s: chunk available after %6.2f s "
                    "(%6.1f MB/s degraded-read throughput)\n",
                    algorithmName(algo).c_str(), r.repairTime,
                    r.repairThroughput / 1e6);
    }

    std::printf("\nnow a burst of 8 degraded reads with a straggler "
                "appearing early (a participating node's links drop "
                "to 2%% for 30 s):\n");
    for (auto algo : {Algorithm::kEtrp, Algorithm::kChameleon}) {
        ExperimentConfig cfg;
        cfg.code = ec::makeRs(6, 3);
        cfg.chunksToRepair = 8;
        cfg.exec.sliceSize = 1 * units::MiB;
        cfg.trace = traffic::ycsbA();
        cfg.chameleon.tPhase = 5.0;
        cfg.chameleon.checkPeriod = 0.25;
        cfg.chameleon.stragglerSlack = 0.5;
        cfg.seed = 3;
        cfg.stragglers.push_back(
            StragglerEvent{0.3, kInvalidNode, 0.02, 30.0, true,
                           true});
        auto r = runExperiment(algo, cfg);
        // Reads served before the straggler clears (first 10 s).
        Bytes early = 0;
        for (std::size_t w = 0;
             w < r.throughputTimeline.size() &&
             static_cast<double>(w) * r.timelinePeriod < 10.0;
             ++w)
            early += r.throughputTimeline[w] * r.timelinePeriod;
        std::printf("%-12s: %2.0f of 8 reads served within 10 s; all "
                    "served after %6.2f s (retunes %d, reorders "
                    "%d)\n",
                    algorithmName(algo).c_str(),
                    early / cfg.exec.chunkSize, r.repairTime,
                    r.retunes, r.reorders);
    }
    std::printf("\nStraggler-aware re-scheduling re-tunes transfers "
                "around the slow node and lets unaffected reads "
                "finish first.\n");
    return 0;
}
