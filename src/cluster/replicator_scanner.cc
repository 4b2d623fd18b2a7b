#include "cluster/replicator_scanner.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace cluster {

ReplicatorScanner::ReplicatorScanner(StripeTable &stripes,
                                     RepairQueue &queue,
                                     sim::Simulator &sim,
                                     ScannerConfig config)
    : stripes_(stripes), queue_(queue), sim_(sim),
      config_(std::move(config)),
      metStripesScanned_(
          telemetry::metrics().counter("scanner.stripes_scanned")),
      metChunksEnqueued_(
          telemetry::metrics().counter("scanner.chunks_enqueued"))
{
    CHAMELEON_ASSERT(config_.batchSize >= 1,
                     "scanner batchSize must be >= 1");
    CHAMELEON_ASSERT(config_.tickInterval > 0,
                     "scanner tickInterval must be > 0");
    CHAMELEON_ASSERT(config_.riskMargin >= 0,
                     "scanner riskMargin must be >= 0");
    // Initial discovery barrier: one full sweep.
    barrier_ = stripes_.stripeCount();
}

void
ReplicatorScanner::start()
{
    if (running_)
        return;
    running_ = true;
    sim_.scheduleAfter(config_.tickInterval, [this] { tick(); });
}

void
ReplicatorScanner::stop()
{
    running_ = false;
}

void
ReplicatorScanner::tick()
{
    if (!running_)
        return;
    scanBatch(config_.batchSize);
    pumpAdmission();
    publishGauges();
    sim_.scheduleAfter(config_.tickInterval, [this] { tick(); });
}

void
ReplicatorScanner::primeSync()
{
    scanBatch(stripes_.stripeCount());
    pumpAdmission();
    publishGauges();
}

void
ReplicatorScanner::scanBatch(int limit)
{
    const int total = stripes_.stripeCount();
    if (total == 0) {
        scannedTotal_ = barrier_;
        return;
    }
    for (int left = limit; left > 0;) {
        if (cursor_ == 0)
            sweepStartStamp_ = stripes_.wipeStamp();
        // Up to the wrap or the batch end, whichever comes first.
        // With no wipe pending, a healthy stripe needs only its state
        // set, so runs of them are marked in one pass; scanStripe()
        // takes the first stripe that has a lost bit or a misplaced
        // flag, and every stripe while a wipe is pending.
        const StripeId end = cursor_ + std::min(left, total - cursor_);
        StripeId next = cursor_;
        if (!stripes_.hasPendingWipe())
            next = stripes_.markHealthyRun(cursor_, end);
        if (next < end)
            scanStripe(next++);
        scannedTotal_ += next - cursor_;
        left -= next - cursor_;
        cursor_ = next;
        if (cursor_ >= total) {
            cursor_ = 0;
            ++epoch_;
            // A full sweep materialized every stripe; if no newer
            // deferred failure raced it, the per-node pending-wipe
            // flags carry no information any more.
            if (stripes_.wipeStamp() == sweepStartStamp_)
                stripes_.clearPendingWipes();
        }
    }
    metStripesScanned_.add(limit);
}

void
ReplicatorScanner::scanStripe(StripeId stripe)
{
    stripes_.materializeWipe(stripe);
    const uint64_t mask = stripes_.lostMask(stripe);
    const int lost = std::popcount(mask);
    StripeHealth health = StripeHealth::kHealthy;
    RepairTier tier = RepairTier::kDegraded;
    if (lost > 0) {
        const int survivors = stripes_.code().n() - lost;
        const int margin = survivors - stripes_.code().k();
        if (margin < 0)
            health = StripeHealth::kUnrecoverable;
        else if (margin < config_.riskMargin)
            health = StripeHealth::kDataLossRisk;
        else
            health = StripeHealth::kDegraded;
        // Unrecoverable stripes still enqueue at the most urgent
        // tier: the repair session is the authority (a rejoining
        // node or a late repair can change the verdict).
        tier = health == StripeHealth::kDegraded
                   ? RepairTier::kDegraded
                   : RepairTier::kDataLossRisk;
    } else if (stripes_.misplaced(stripe)) {
        health = StripeHealth::kMisplaced;
    }
    stripes_.setState(stripe, health);
    if (lost > 0) {
        uint64_t bits = mask;
        while (bits) {
            const int c = std::countr_zero(bits);
            bits &= bits - 1;
            if (queue_.push(
                    FailedChunk{stripe,
                                static_cast<ChunkIndex>(c)},
                    tier))
                metChunksEnqueued_.add();
        }
    } else if (health == StripeHealth::kMisplaced) {
        queue_.push(FailedChunk{stripe, kBalancerChunk},
                    RepairTier::kMisplaced);
    }
}

void
ReplicatorScanner::noteCrash(NodeId)
{
    barrier_ = scannedTotal_ + stripes_.stripeCount();
    queue_.invalidate();
}

void
ReplicatorScanner::noteRejoin(NodeId)
{
    barrier_ = scannedTotal_ + stripes_.stripeCount();
    queue_.invalidate();
}

void
ReplicatorScanner::pumpAdmission()
{
    if (pumping_) {
        repump_ = true;
        return;
    }
    pumping_ = true;
    do {
        repump_ = false;
        std::vector<FailedChunk> batch;
        while (auto admitted = queue_.pop()) {
            if (admitted->chunk.chunk == kBalancerChunk) {
                if (onMisplaced_)
                    onMisplaced_(admitted->chunk.stripe);
                else
                    stripes_.clearMisplaced(
                        admitted->chunk.stripe);
                queue_.complete(admitted->chunk);
                continue;
            }
            batch.push_back(admitted->chunk);
        }
        if (!batch.empty() && dispatch_)
            dispatch_(std::move(batch));
    } while (repump_);
    pumping_ = false;
}

void
ReplicatorScanner::onChunkOutcome(const FailedChunk &chunk, bool)
{
    queue_.complete(chunk);
    pumpAdmission();
}

void
ReplicatorScanner::publishGauges()
{
    auto &m = telemetry::metrics();
    const int total = stripes_.stripeCount();
    m.gauge("scanner.scan_progress")
        .set(total > 0 ? static_cast<double>(cursor_) / total : 1.0);
    m.gauge("scanner.epoch").set(static_cast<double>(epoch_));
    m.gauge("repair.queue.depth")
        .set(static_cast<double>(queue_.depth()));
    m.gauge("repair.queue.in_flight")
        .set(static_cast<double>(queue_.inFlight()));
}

} // namespace cluster
} // namespace chameleon
