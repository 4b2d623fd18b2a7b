#include "repair/monitor.hh"

#include <algorithm>
#include <string>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace repair {

BandwidthMonitor::BandwidthMonitor(cluster::Cluster &cluster,
                                   SimTime sample_period,
                                   Dimension dimension,
                                   double floor_fraction)
    : cluster_(cluster), period_(sample_period), dimension_(dimension),
      floorFraction_(floor_fraction)
{
    CHAMELEON_ASSERT(sample_period > 0, "sample period must be positive");
    const auto n = static_cast<std::size_t>(cluster_.numNodes());
    // Before the first sample, links look fully idle.
    upResidual_.assign(n, 0.0);
    downResidual_.assign(n, 0.0);
    diskResidual_.assign(n, 0.0);
    for (NodeId node = 0; node < cluster_.numNodes(); ++node) {
        auto i = static_cast<std::size_t>(node);
        upResidual_[i] = cluster_.network().capacity(
            cluster_.uplink(node));
        downResidual_[i] = cluster_.network().capacity(
            cluster_.downlink(node));
        diskResidual_[i] = cluster_.network().capacity(
            cluster_.disk(node));
    }
    lastUpBytes_.assign(n, 0.0);
    lastDownBytes_.assign(n, 0.0);
    lastDiskBytes_.assign(n, 0.0);
}

void
BandwidthMonitor::start()
{
    if (running_)
        return;
    running_ = true;
    ++generation_;
    // Seed the byte counters at the current instant, then sample
    // periodically.
    auto &net = cluster_.network();
    net.sync();
    for (NodeId node = 0; node < cluster_.numNodes(); ++node) {
        auto i = static_cast<std::size_t>(node);
        lastUpBytes_[i] = net.taggedBytes(cluster_.uplink(node),
                                          sim::FlowTag::kForeground);
        lastDownBytes_[i] = net.taggedBytes(cluster_.downlink(node),
                                            sim::FlowTag::kForeground);
        lastDiskBytes_[i] = net.taggedBytes(cluster_.disk(node),
                                            sim::FlowTag::kForeground);
    }
    cluster_.simulator().scheduleAfter(
        period_, [this, generation = generation_] { sample(generation); });
}

void
BandwidthMonitor::stop()
{
    running_ = false;
}

void
BandwidthMonitor::setMeasurementNoise(double fraction, uint64_t seed)
{
    CHAMELEON_ASSERT(fraction >= 0.0 && fraction < 1.0,
                     "noise fraction out of range: ", fraction);
    noise_ = fraction;
    noiseRng_ = Rng(seed);
}

Rate
BandwidthMonitor::noisy(Rate used)
{
    if (noise_ == 0.0)
        return used;
    return used * (1.0 + noiseRng_.uniform(-noise_, noise_));
}

void
BandwidthMonitor::sample(uint64_t generation)
{
    if (!running_ || generation != generation_)
        return;
    auto &net = cluster_.network();
    net.sync();
    for (NodeId node = 0; node < cluster_.numNodes(); ++node) {
        auto i = static_cast<std::size_t>(node);
        Bytes up = net.taggedBytes(cluster_.uplink(node),
                                   sim::FlowTag::kForeground);
        Bytes down = net.taggedBytes(cluster_.downlink(node),
                                     sim::FlowTag::kForeground);
        Bytes disk = net.taggedBytes(cluster_.disk(node),
                                     sim::FlowTag::kForeground);
        Rate up_cap = net.capacity(cluster_.uplink(node));
        Rate down_cap = net.capacity(cluster_.downlink(node));
        Rate disk_cap = net.capacity(cluster_.disk(node));
        upResidual_[i] = std::max(
            up_cap - noisy((up - lastUpBytes_[i]) / period_),
            floorFraction_ * up_cap);
        downResidual_[i] = std::max(
            down_cap - noisy((down - lastDownBytes_[i]) / period_),
            floorFraction_ * down_cap);
        diskResidual_[i] = std::max(
            disk_cap - noisy((disk - lastDiskBytes_[i]) / period_),
            floorFraction_ * disk_cap);
        lastUpBytes_[i] = up;
        lastDownBytes_[i] = down;
        lastDiskBytes_[i] = disk;
        // Per-node residual traces are for small-cluster figure
        // debugging; at scale-run sizes (thousands of nodes) they
        // would dominate the sample with string/track churn.
        if (cluster_.numNodes() <= 64) {
            CHAMELEON_TELEM(telemetry::tracer().counter(
                cluster_.simulator().now(), telemetry::kTrackMonitor,
                "residual.n" + std::to_string(node),
                {{"up", upResidual_[i]},
                 {"down", downResidual_[i]},
                 {"disk", diskResidual_[i]}}));
        }
    }
    ++samples_;
    telemetry::metrics().counter("monitor.samples").add();
    cluster_.simulator().scheduleAfter(
        period_, [this, generation] { sample(generation); });
}

Rate
BandwidthMonitor::residualUplink(NodeId node) const
{
    return upResidual_[static_cast<std::size_t>(node)];
}

Rate
BandwidthMonitor::residualDownlink(NodeId node) const
{
    return downResidual_[static_cast<std::size_t>(node)];
}

Rate
BandwidthMonitor::residualDisk(NodeId node) const
{
    return diskResidual_[static_cast<std::size_t>(node)];
}

Rate
BandwidthMonitor::dispatchUp(NodeId node) const
{
    // Storage dimension: an upload task is a disk read of the whole
    // chunk, so reads are keyed on the disk residual. Download tasks
    // land in memory (relays combine in RAM; the destination writes
    // each chunk once), so their placement stays keyed on the ingest
    // link; the write cost is captured by the service estimates.
    return dimension_ == Dimension::kStorage
               ? residualDisk(node)
               : residualUplink(node);
}

Rate
BandwidthMonitor::dispatchDown(NodeId node) const
{
    // Downloads land in memory in both dimensions (the destination's
    // single reconstructed write is covered by service estimates),
    // so they are always placed by ingest-link residual.
    return residualDownlink(node);
}

Rate
BandwidthMonitor::serviceUp(NodeId node) const
{
    return std::min(residualUplink(node), residualDisk(node));
}

Rate
BandwidthMonitor::serviceDown(NodeId node) const
{
    return std::min(residualDownlink(node), residualDisk(node));
}

} // namespace repair
} // namespace chameleon
