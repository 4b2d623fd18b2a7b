/**
 * @file
 * Periodic residual-bandwidth estimation, the ChameleonEC
 * coordinator's view of the cluster (the paper samples per-link
 * foreground usage with NetHogs and derives idle bandwidth).
 *
 * Every `samplePeriod` seconds the monitor measures the foreground
 * bytes each link (or disk, for ChameleonEC-IO) moved since the last
 * sample and estimates residual capacity = capacity - occupied,
 * floored at a small fraction of capacity. Estimates are stale
 * between samples — exactly the imperfection the straggler-aware
 * re-scheduler exists to absorb.
 */

#ifndef CHAMELEON_REPAIR_MONITOR_HH_
#define CHAMELEON_REPAIR_MONITOR_HH_

#include <vector>

#include "cluster/cluster.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace chameleon {
namespace repair {

/** Residual-bandwidth estimator; see file comment. */
class BandwidthMonitor
{
  public:
    /** Which resource the dispatcher keys on (Section III-D). */
    enum class Dimension {
        kNetwork, ///< uplink/downlink residual (default ChameleonEC)
        kStorage, ///< disk residual (ChameleonEC-IO, Exp#12)
    };

    /**
     * @param sample_period  seconds between usage samples.
     * @param floor_fraction lower bound on estimates as a fraction
     *                       of capacity (a link never looks fully
     *                       dead to the dispatcher).
     */
    BandwidthMonitor(cluster::Cluster &cluster,
                     SimTime sample_period = 5.0,
                     Dimension dimension = Dimension::kNetwork,
                     double floor_fraction = 0.02);

    /** Begins periodic sampling at the current time. */
    void start();

    /** Stops sampling (estimates freeze at their last values). */
    void stop();

    /**
     * Injects multiplicative measurement noise: every sampled usage
     * is scaled by a uniform factor in [1-fraction, 1+fraction]
     * (NetHogs-style samplers misattribute short bursts). With noise
     * f the residual error is bounded by f * capacity on top of the
     * staleness the re-scheduler already absorbs.
     */
    void setMeasurementNoise(double fraction, uint64_t seed);

    double measurementNoise() const { return noise_; }

    Dimension dimension() const { return dimension_; }

    /** Estimated idle uplink bandwidth of `node` (bytes/s). */
    Rate residualUplink(NodeId node) const;

    /** Estimated idle downlink bandwidth of `node` (bytes/s). */
    Rate residualDownlink(NodeId node) const;

    /** Estimated idle disk bandwidth of `node` (bytes/s). */
    Rate residualDisk(NodeId node) const;

    /**
     * The estimate the dispatcher uses for upload tasks: uplink for
     * kNetwork, disk for kStorage.
     */
    Rate dispatchUp(NodeId node) const;

    /** Download-task counterpart of dispatchUp(). */
    Rate dispatchDown(NodeId node) const;

    /**
     * Honest per-task upload service rate: a task is paced by both
     * the link and the disk, so this is the min of the two
     * residuals. Used for admission estimates and straggler
     * expectations, never for dispatch placement.
     */
    Rate serviceUp(NodeId node) const;

    /** Download counterpart of serviceUp(). */
    Rate serviceDown(NodeId node) const;

    /** Number of samples taken so far. */
    int sampleCount() const { return samples_; }

  private:
    /** One sample of the chain that start() number `generation`
     * began; a chain from before the latest start() ends here. */
    void sample(uint64_t generation);

    /** Applies the configured measurement noise to a usage rate. */
    Rate noisy(Rate used);

    cluster::Cluster &cluster_;
    SimTime period_;
    Dimension dimension_;
    double floorFraction_;
    double noise_ = 0.0;
    Rng noiseRng_{0};
    bool running_ = false;
    /** Bumped by start(), so a sample event that a stop() left
     * pending cannot keep a second chain going after a restart. */
    uint64_t generation_ = 0;
    int samples_ = 0;
    std::vector<Rate> upResidual_;
    std::vector<Rate> downResidual_;
    std::vector<Rate> diskResidual_;
    std::vector<Bytes> lastUpBytes_;
    std::vector<Bytes> lastDownBytes_;
    std::vector<Bytes> lastDiskBytes_;
};

} // namespace repair
} // namespace chameleon

#endif // CHAMELEON_REPAIR_MONITOR_HH_
