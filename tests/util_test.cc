/**
 * @file
 * Unit tests for the util module: RNG determinism and uniformity,
 * fixed-bound draws against below(), distribution shapes,
 * percentile math, and windowed bandwidth accounting.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "util/distributions.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace chameleon {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform)
{
    Rng rng(9);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i) {
        uint64_t v = rng.below(10);
        ASSERT_LT(v, 10u);
        counts[v]++;
    }
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        int64_t v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(2.5);
    EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(FixedBound, DrawEqualsBelowAndLeavesSameState)
{
    // Stripe widths and cluster sizes, 2^31 - 1, the ends of the
    // 64-bit range and every power of two.
    std::vector<uint64_t> bounds = {
        1, 2, 3, 5, 7, 10, 14, 999, 1000, 1001, 5000, 65535,
        (1ull << 31) - 1, (1ull << 32) - 1, (1ull << 32) + 1,
        (1ull << 63) - 1, (1ull << 63) + 1, ~0ull};
    for (int b = 0; b < 64; ++b)
        bounds.push_back(1ull << b);
    // Random bounds of every width, from 1 bit to 64.
    Rng pick(2024);
    for (int bits = 1; bits <= 64; ++bits) {
        for (int i = 0; i < 4; ++i) {
            const uint64_t v = bits == 64 ? pick.next()
                                          : pick.next() >> (64 - bits);
            bounds.push_back(std::max<uint64_t>(v, 1));
        }
    }
    for (uint64_t bound : bounds) {
        const FixedBound fixed(bound);
        for (uint64_t seed = 1; seed <= 24; ++seed) {
            Rng legacy(seed * 0x9E37 + bound);
            Rng hoisted(seed * 0x9E37 + bound);
            for (int i = 0; i < 64; ++i)
                ASSERT_EQ(fixed.draw(hoisted), legacy.below(bound))
                    << "bound " << bound << " seed " << seed << " draw "
                    << i;
            // Same number of next() calls: the streams stay aligned.
            ASSERT_EQ(hoisted.next(), legacy.next())
                << "bound " << bound << " seed " << seed;
        }
    }
}

TEST(FixedBound, LongStreamsHitBothEndsOfTheRange)
{
    // A reciprocal off by one goes wrong where r % bound is 0 or
    // bound - 1; long streams reach both many times for small
    // bounds.
    for (uint64_t bound : {3ull, 1000ull, 5000ull, (1ull << 31) - 1,
                           (1ull << 32) - 5}) {
        const FixedBound fixed(bound);
        Rng a(bound), b(bound);
        int zeros = 0, tops = 0;
        for (int i = 0; i < 200000; ++i) {
            const uint64_t v = fixed.draw(a);
            ASSERT_EQ(v, b.below(bound)) << "bound " << bound;
            zeros += v == 0;
            tops += v == bound - 1;
        }
        if (bound <= 5000) {
            EXPECT_GT(zeros, 0) << "bound " << bound;
            EXPECT_GT(tops, 0) << "bound " << bound;
        }
    }
}

TEST(Rng, SplitDecorrelates)
{
    Rng parent(123);
    Rng c1 = parent.split();
    Rng c2 = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (c1.next() == c2.next());
    EXPECT_LT(same, 4);
}

TEST(Zipfian, RanksAreInRange)
{
    ZipfianSampler z(1000, 0.99, /*scramble=*/false);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(z.sample(rng), 1000u);
}

TEST(Zipfian, UnscrambledIsSkewedTowardLowRanks)
{
    ZipfianSampler z(10000, 0.99, /*scramble=*/false);
    Rng rng(17);
    int top10 = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        top10 += (z.sample(rng) < 10);
    // Under Zipf(0.99) the top-10 of 10k keys draw a large share
    // (roughly half); uniform would give 0.1%.
    EXPECT_GT(top10, n / 4);
}

TEST(Zipfian, ScrambleSpreadsHotKeys)
{
    ZipfianSampler z(10000, 0.99, /*scramble=*/true);
    Rng rng(19);
    // The hottest scrambled key should no longer be key 0.
    std::map<uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        counts[z.sample(rng)]++;
    auto hottest = std::max_element(
        counts.begin(), counts.end(),
        [](auto &a, auto &b) { return a.second < b.second; });
    EXPECT_NE(hottest->first, 0u);
    EXPECT_GT(hottest->second, 1000); // skew preserved
}

TEST(Pareto, RespectsBounds)
{
    ParetoSampler p(0.35, 1.0, 1e6);
    Rng rng(23);
    for (int i = 0; i < 10000; ++i) {
        double v = p.sample(rng);
        ASSERT_GE(v, 1.0);
        ASSERT_LE(v, 1e6);
    }
}

TEST(Pareto, HeavyTailPresent)
{
    ParetoSampler p(0.35, 1.0, 1e6);
    Rng rng(29);
    int large = 0;
    for (int i = 0; i < 100000; ++i)
        large += (p.sample(rng) > 1e3);
    // Bounded Pareto with shape 0.35 puts a visible mass in the tail.
    EXPECT_GT(large, 1000);
    EXPECT_LT(large, 50000);
}

TEST(Gev, ClampsAndCentersNearMu)
{
    GevSampler g(30.7, 8.2, 0.078, 1000.0);
    Rng rng(31);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double v = g.sample(rng);
        ASSERT_GE(v, 1.0);
        ASSERT_LE(v, 1000.0);
        sum += v;
    }
    // GEV mean = mu + sigma*(g1-1)/xi with g1 = Gamma(1-xi): ~35.8.
    EXPECT_NEAR(sum / n, 35.8, 2.0);
}

TEST(LogNormal, BoundsAndMedian)
{
    // Median of log-normal is exp(mu).
    BoundedLogNormalSampler s(std::log(1e4), 2.0, 16.0, 2.4e9);
    Rng rng(37);
    std::vector<double> vals;
    for (int i = 0; i < 50001; ++i) {
        double v = s.sample(rng);
        ASSERT_GE(v, 16.0);
        ASSERT_LE(v, 2.4e9);
        vals.push_back(v);
    }
    std::nth_element(vals.begin(), vals.begin() + 25000, vals.end());
    EXPECT_NEAR(std::log(vals[25000]), std::log(1e4), 0.1);
}

TEST(Discrete, FollowsWeights)
{
    DiscreteSampler d({1.0, 3.0, 6.0});
    Rng rng(41);
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 100000; ++i)
        counts[d.sample(rng)]++;
    EXPECT_NEAR(counts[0], 10000, 800);
    EXPECT_NEAR(counts[1], 30000, 1200);
    EXPECT_NEAR(counts[2], 60000, 1500);
}

TEST(LatencyRecorder, PercentileNearestRank)
{
    LatencyRecorder rec;
    for (int i = 1; i <= 100; ++i)
        rec.record(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(rec.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(rec.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(rec.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(rec.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(rec.mean(), 50.5);
    EXPECT_DOUBLE_EQ(rec.max(), 100.0);
}

TEST(LatencyRecorder, InterleavedRecordAndQuery)
{
    LatencyRecorder rec;
    rec.record(5.0);
    EXPECT_DOUBLE_EQ(rec.p99(), 5.0);
    rec.record(1.0);
    rec.record(9.0);
    EXPECT_DOUBLE_EQ(rec.p99(), 9.0);
    EXPECT_EQ(rec.count(), 3u);
}

TEST(LatencyRecorder, EmptyIsZero)
{
    LatencyRecorder rec;
    EXPECT_DOUBLE_EQ(rec.p99(), 0.0);
    EXPECT_DOUBLE_EQ(rec.mean(), 0.0);
}

TEST(WindowedUsage, SingleWindowRate)
{
    WindowedUsage u(15.0);
    u.addTransfer(0.0, 15.0, 150.0);
    ASSERT_EQ(u.windowCount(), 1u);
    EXPECT_DOUBLE_EQ(u.windowRate(0), 10.0);
    EXPECT_DOUBLE_EQ(u.totalBytes(), 150.0);
}

TEST(WindowedUsage, SpreadsAcrossWindows)
{
    WindowedUsage u(10.0);
    // 5..25 at rate 10 B/s: 50 bytes in w0, 100 in w1, 50 in w2.
    u.addTransfer(5.0, 25.0, 200.0);
    ASSERT_EQ(u.windowCount(), 3u);
    EXPECT_DOUBLE_EQ(u.windowRate(0), 5.0);
    EXPECT_DOUBLE_EQ(u.windowRate(1), 10.0);
    EXPECT_DOUBLE_EQ(u.windowRate(2), 5.0);
    EXPECT_NEAR(u.totalBytes(), 200.0, 1e-9);
}

TEST(WindowedUsage, FluctuationIsMaxMinusMin)
{
    WindowedUsage u(10.0);
    u.addTransfer(0.0, 10.0, 100.0);  // 10 B/s
    u.addTransfer(10.0, 20.0, 400.0); // 40 B/s
    u.addTransfer(20.0, 30.0, 200.0); // 20 B/s
    EXPECT_DOUBLE_EQ(u.fluctuation(), 30.0);
    EXPECT_NEAR(u.meanRate(), (10.0 + 40.0 + 20.0) / 3.0, 1e-9);
}

TEST(WindowedUsage, InstantTransferLandsInWindow)
{
    WindowedUsage u(10.0);
    u.addTransfer(12.0, 12.0, 70.0);
    ASSERT_EQ(u.windowCount(), 2u);
    EXPECT_DOUBLE_EQ(u.windowRate(1), 7.0);
}

TEST(Summary, TracksMinMeanMax)
{
    Summary s;
    s.add(2.0);
    s.add(4.0);
    s.add(9.0);
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.max, 9.0);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_EQ(s.count, 3u);
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(64 * units::MiB, 67108864.0);
    EXPECT_DOUBLE_EQ(10 * units::Gbps, 1.25e9);
    EXPECT_DOUBLE_EQ(500 * units::MBps, 5e8);
}

} // namespace
} // namespace chameleon

namespace chameleon {
namespace {

TEST(LatencyRecorder, PercentileFromSuffix)
{
    LatencyRecorder rec;
    // First half small, second half large.
    for (int i = 0; i < 50; ++i)
        rec.record(1.0);
    for (int i = 0; i < 50; ++i)
        rec.record(100.0 + i);
    EXPECT_DOUBLE_EQ(rec.percentileFrom(50, 50.0), 124.0);
    EXPECT_DOUBLE_EQ(rec.percentileFrom(50, 100.0), 149.0);
    EXPECT_DOUBLE_EQ(rec.meanFrom(50), 124.5);
    // Suffix beyond the end is empty.
    EXPECT_DOUBLE_EQ(rec.percentileFrom(100, 99.0), 0.0);
    EXPECT_DOUBLE_EQ(rec.meanFrom(100), 0.0);
}

TEST(LatencyRecorder, PercentileFromUnaffectedByPriorSorts)
{
    LatencyRecorder rec;
    rec.record(9.0);
    rec.record(1.0);
    rec.record(5.0);
    // A full-range percentile call must not disturb recording order.
    EXPECT_DOUBLE_EQ(rec.percentile(50), 5.0);
    EXPECT_DOUBLE_EQ(rec.percentileFrom(1, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(rec.samples()[0], 9.0);
}

TEST(WindowedUsage, RangeQueries)
{
    WindowedUsage u(10.0);
    u.addTransfer(0.0, 10.0, 100.0);  // w0: 10 B/s
    u.addTransfer(10.0, 20.0, 300.0); // w1: 30 B/s
    u.addTransfer(30.0, 40.0, 200.0); // w3: 20 B/s (w2 idle)
    EXPECT_DOUBLE_EQ(u.fluctuationBetween(0.0, 20.0), 20.0);
    EXPECT_DOUBLE_EQ(u.meanRateBetween(0.0, 20.0), 20.0);
    // Range covering the idle window sees a zero minimum.
    EXPECT_DOUBLE_EQ(u.fluctuationBetween(10.0, 40.0), 30.0);
    // Range beyond recorded windows counts as zero traffic.
    EXPECT_DOUBLE_EQ(u.meanRateBetween(40.0, 60.0), 0.0);
}

TEST(WindowedUsage, RangeBoundaryExactEnd)
{
    WindowedUsage u(10.0);
    u.addTransfer(0.0, 30.0, 300.0); // 10 B/s across w0..w2
    // End exactly on a boundary excludes the next window.
    EXPECT_DOUBLE_EQ(u.fluctuationBetween(0.0, 30.0), 0.0);
    EXPECT_DOUBLE_EQ(u.meanRateBetween(0.0, 30.0), 10.0);
}

} // namespace
} // namespace chameleon
