#include "cluster/scrub_scanner.hh"

#include <algorithm>
#include <utility>

#include "sim/flow_network.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace cluster {

ScrubScanner::ScrubScanner(Cluster &cluster, StripeTable &stripes,
                           Bytes chunk_bytes, ScrubConfig config)
    : cluster_(cluster), stripes_(stripes),
      chunkBytes_(chunk_bytes), config_(std::move(config))
{
    CHAMELEON_ASSERT(chunkBytes_ > 0, "scrub chunk size must be > 0");
    CHAMELEON_ASSERT(config_.rate > 0, "scrub rate must be > 0");
    CHAMELEON_ASSERT(config_.tickInterval > 0,
                     "scrub tickInterval must be > 0");
    CHAMELEON_ASSERT(config_.maxInFlight >= 1,
                     "scrub maxInFlight must be >= 1");
    CHAMELEON_ASSERT(config_.adaptiveFloor > 0 &&
                         config_.adaptiveFloor <= 1.0,
                     "scrub adaptiveFloor must be in (0, 1]");
    CHAMELEON_ASSERT(config_.riskMargin >= 0,
                     "scrub riskMargin must be >= 0");
}

void
ScrubScanner::start()
{
    if (running_)
        return;
    running_ = true;
    cluster_.simulator().scheduleAfter(config_.tickInterval,
                                       [this] { tick(); });
}

void
ScrubScanner::stop()
{
    running_ = false;
}

void
ScrubScanner::tick()
{
    if (!running_)
        return;
    // Token bucket: refill one tick's worth, carry at most a few
    // ticks of unused budget so idle periods don't bank an
    // unbounded read burst.
    const double refill = config_.rate * config_.tickInterval;
    budget_ = std::min(budget_ + refill, 4.0 * refill);
    pumpReads();
    publishGauges();
    cluster_.simulator().scheduleAfter(config_.tickInterval,
                                       [this] { tick(); });
}

double
ScrubScanner::readCost(NodeId node) const
{
    if (!config_.adaptive)
        return chunkBytes_;
    // Chameleon-style dispatch: charge the bucket inversely to the
    // disk's idle foreground headroom, so a busy disk's scrub rate
    // degrades toward adaptiveFloor * rate while idle disks scrub
    // at full speed.
    const auto disk = cluster_.disk(node);
    const auto &net = cluster_.network();
    const double cap = net.capacity(disk);
    const double fg =
        cap > 0
            ? net.currentTagRate(disk, sim::FlowTag::kForeground) /
                  cap
            : 0.0;
    const double headroom =
        std::clamp(1.0 - fg, config_.adaptiveFloor, 1.0);
    return chunkBytes_ / headroom;
}

void
ScrubScanner::advanceCursor()
{
    if (++chunkCursor_ >= stripes_.code().n()) {
        chunkCursor_ = 0;
        if (++stripeCursor_ >= stripes_.stripeCount()) {
            stripeCursor_ = 0;
            ++epoch_;
        }
    }
}

void
ScrubScanner::pumpReads()
{
    if (stripes_.stripeCount() == 0)
        return;
    // Lost/down chunks are skipped without charge, but bound the
    // metadata walk per pump so a mostly-lost table cannot spin the
    // cursor through whole epochs inside one tick.
    int64_t visits = std::max<int64_t>(
        256, 4 * static_cast<int64_t>(config_.rate *
                                      config_.tickInterval /
                                      chunkBytes_));
    while (visits-- > 0 && inFlight_ < config_.maxInFlight) {
        const FailedChunk fc{stripeCursor_, chunkCursor_};
        if (stripes_.chunkLost(fc.stripe, fc.chunk)) {
            advanceCursor();
            continue;
        }
        const NodeId node = stripes_.location(fc.stripe, fc.chunk);
        if (cluster_.nodeDown(node)) {
            advanceCursor();
            continue;
        }
        const double cost = readCost(node);
        if (budget_ < cost)
            break; // head-of-line: wait for the next refill
        budget_ -= cost;
        ++inFlight_;
        advanceCursor();
        cluster_.network().startFlow(
            {cluster_.disk(node)}, chunkBytes_,
            sim::FlowTag::kScrub,
            [this, fc] { onReadDone(fc, chunkBytes_); });
    }
}

void
ScrubScanner::onReadDone(FailedChunk chunk, Bytes bytes)
{
    --inFlight_;
    ++scrubbedTotal_;
    scrubBytes_ += bytes;
    telemetry::metrics()
        .counter("integrity.scrub_bytes")
        .add(static_cast<int64_t>(bytes));
    // The read ran the checksum kernel over the payload: surface
    // corruption unless a crash already promoted the chunk to lost
    // while the read was in flight.
    if (!stripes_.chunkLost(chunk.stripe, chunk.chunk) &&
        stripes_.chunkCorrupt(chunk.stripe, chunk.chunk))
        detect(chunk, DetectSource::kScrubRead);
    // Defer the refill pump: this runs inside the flow network's
    // completion dispatch, where starting flows must not re-enter.
    cluster_.simulator().scheduleAfter(0.0, [this] {
        if (running_)
            pumpReads();
    });
}

void
ScrubScanner::noteCorruption(FailedChunk chunk)
{
    ++seen_;
    rotTimes_.emplace(key(chunk), cluster_.simulator().now());
    telemetry::metrics()
        .counter("integrity.corruptions_injected")
        .add();
}

bool
ScrubScanner::detect(FailedChunk chunk, DetectSource source)
{
    if (!stripes_.chunkCorrupt(chunk.stripe, chunk.chunk) ||
        stripes_.chunkLost(chunk.stripe, chunk.chunk))
        return false;
    ++detected_;
    const SimTime now = cluster_.simulator().now();
    auto &m = telemetry::metrics();
    auto it = rotTimes_.find(key(chunk));
    if (it != rotTimes_.end()) {
        const SimTime latency = now - it->second;
        m.histogram("integrity.detection_latency",
                    {1, 5, 15, 30, 60, 120, 300, 600, 1800})
            .observe(latency);
        latencySum_ += latency;
        latencyMax_ = std::max(latencyMax_, latency);
        ++latencyCount_;
        rotTimes_.erase(it);
    }
    const char *how = source == DetectSource::kScrubRead
                          ? "integrity.detected.scrub"
                      : source == DetectSource::kVerifyRead
                          ? "integrity.detected.verify_read"
                          : "integrity.detected.verify_decode";
    m.counter(how).add();
    m.counter("integrity.corruptions_detected").add();
    CHAMELEON_TELEM(telemetry::tracer().instant(
        now, telemetry::kTrackFault, "integrity", "detect",
        {{"stripe", chunk.stripe},
         {"chunk", chunk.chunk},
         {"source", static_cast<int>(source)}}));
    // Promote silent corruption to a real loss; the repair layer
    // takes it from here (and markRepaired clears the corrupt bit
    // once a verified reconstruction lands).
    stripes_.markLost(chunk.stripe, chunk.chunk);
    pendingRepair_.insert(key(chunk));
    // Tier classification mirrors ReplicatorScanner::scanStripe: a
    // detected corruption is one fewer survivor, so it counts
    // toward data-loss-risk combined with real erasures.
    const int survivors = static_cast<int>(
        stripes_.availableChunks(chunk.stripe).size());
    const int margin = survivors - stripes_.code().k();
    const RepairTier tier = margin < config_.riskMargin
                                ? RepairTier::kDataLossRisk
                                : RepairTier::kDegraded;
    if (onDetected_)
        onDetected_(chunk, tier);
    return true;
}

void
ScrubScanner::noteOutcome(const FailedChunk &chunk, bool repaired)
{
    if (pendingRepair_.erase(key(chunk)) == 0)
        return;
    if (repaired) {
        ++repaired_;
        telemetry::metrics()
            .counter("integrity.corruptions_repaired")
            .add();
    } else {
        telemetry::metrics()
            .counter("integrity.corruptions_unrecovered")
            .add();
    }
}

bool
ScrubScanner::quiescent() const
{
    if (!pendingRepair_.empty())
        return false;
    for (const auto &kv : rotTimes_) {
        const StripeId s = static_cast<StripeId>(kv.first >> 8);
        const ChunkIndex c =
            static_cast<ChunkIndex>(kv.first & 0xFF);
        // Still silent: corrupt and not promoted to lost (a crash
        // that claims the chunk hands it to normal repair instead).
        if (stripes_.chunkCorrupt(s, c) && !stripes_.chunkLost(s, c))
            return false;
    }
    return true;
}

void
ScrubScanner::publishGauges()
{
    auto &m = telemetry::metrics();
    const int total = stripes_.stripeCount();
    m.gauge("scrub.scan_progress")
        .set(total > 0 ? static_cast<double>(stripeCursor_) / total
                       : 1.0);
    m.gauge("scrub.epoch").set(static_cast<double>(epoch_));
    m.gauge("scrub.in_flight").set(static_cast<double>(inFlight_));
}

} // namespace cluster
} // namespace chameleon
