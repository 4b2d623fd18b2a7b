/**
 * @file
 * Tests for the erasure-code layer: encode/decode round trips, MDS
 * exhaustiveness for RS, local-group repair for LRC, sub-chunk repair
 * for Butterfly, and the repair-spec algebra every scheduler relies
 * on (including relay partial combination, i.e. "tunability").
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ec/butterfly_code.hh"
#include "ec/factory.hh"
#include "ec/lrc_code.hh"
#include "ec/replicated_code.hh"
#include "ec/rs_code.hh"
#include "gf/gf_kernels.hh"
#include "util/rng.hh"

namespace chameleon {
namespace ec {
namespace {

Buffer
randomChunk(Rng &rng, std::size_t size)
{
    Buffer b(size);
    for (auto &v : b)
        v = static_cast<uint8_t>(rng.below(256));
    return b;
}

std::vector<Buffer>
randomStripe(Rng &rng, const ErasureCode &code, std::size_t size)
{
    std::vector<Buffer> data;
    for (int i = 0; i < code.k(); ++i)
        data.push_back(randomChunk(rng, size));
    auto parity = code.encode(data);
    std::vector<Buffer> chunks = data;
    for (auto &p : parity)
        chunks.push_back(std::move(p));
    return chunks;
}

std::vector<ChunkIndex>
survivorsExcept(const ErasureCode &code,
                std::initializer_list<ChunkIndex> failed)
{
    std::vector<ChunkIndex> out;
    for (ChunkIndex i = 0; i < code.n(); ++i)
        if (std::find(failed.begin(), failed.end(), i) == failed.end())
            out.push_back(i);
    return out;
}

/** Verifies a spec reconstructs the lost chunk bit-exactly. */
void
checkRepair(const ErasureCode &code, const std::vector<Buffer> &chunks,
            const RepairSpec &spec)
{
    std::vector<Buffer> helper_data;
    for (const auto &read : spec.reads)
        helper_data.push_back(
            chunks[static_cast<std::size_t>(read.helper)]);
    Buffer repaired = code.repairCompute(spec, helper_data);
    EXPECT_EQ(repaired, chunks[static_cast<std::size_t>(spec.failed)])
        << code.name() << " failed chunk " << spec.failed;
}

// ---------------------------------------------------------------- RS

class RsParamTest
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(RsParamTest, SingleFailureRepairAllPositions)
{
    auto [k, m] = GetParam();
    RsCode code(k, m);
    Rng rng(100 + k * 17 + m);
    auto chunks = randomStripe(rng, code, 128);

    for (ChunkIndex failed = 0; failed < code.n(); ++failed) {
        auto avail = survivorsExcept(code, {failed});
        auto spec = code.makeRepairSpec(failed, avail, rng);
        EXPECT_TRUE(spec.combinable);
        EXPECT_LE(spec.reads.size(), static_cast<std::size_t>(k));
        checkRepair(code, chunks, spec);
    }
}

TEST_P(RsParamTest, DecodeAllFailurePatternsUpToM)
{
    auto [k, m] = GetParam();
    RsCode code(k, m);
    Rng rng(200 + k + m);
    auto chunks = randomStripe(rng, code, 64);

    // Exhaustive over m-subsets when cheap, else random patterns.
    for (int trial = 0; trial < 60; ++trial) {
        auto damaged = chunks;
        std::vector<ChunkIndex> failed;
        int fcount = 1 + static_cast<int>(rng.below(
            static_cast<uint64_t>(m)));
        while (static_cast<int>(failed.size()) < fcount) {
            ChunkIndex f = static_cast<ChunkIndex>(
                rng.below(static_cast<uint64_t>(code.n())));
            if (std::find(failed.begin(), failed.end(), f) ==
                failed.end()) {
                failed.push_back(f);
                damaged[static_cast<std::size_t>(f)].clear();
            }
        }
        ASSERT_TRUE(code.decode(damaged));
        EXPECT_EQ(damaged, chunks);
    }
}

TEST_P(RsParamTest, TooManyFailuresRejected)
{
    auto [k, m] = GetParam();
    RsCode code(k, m);
    Rng rng(300 + k + m);
    auto chunks = randomStripe(rng, code, 32);
    // Fail m+1 chunks.
    for (int i = 0; i <= m; ++i)
        chunks[static_cast<std::size_t>(i)].clear();
    EXPECT_FALSE(code.decode(chunks));
}

INSTANTIATE_TEST_SUITE_P(
    Paradigms, RsParamTest,
    ::testing::Values(std::pair{4, 2}, std::pair{6, 3}, std::pair{8, 3},
                      std::pair{10, 4}, std::pair{12, 4},
                      std::pair{2, 2}),
    [](const auto &info) {
        return "RS_" + std::to_string(info.param.first) + "_" +
               std::to_string(info.param.second);
    });

TEST(RsCode, RandomHelperSelectionVaries)
{
    RsCode code(10, 4);
    Rng rng(7);
    auto avail = survivorsExcept(code, {0});
    auto s1 = code.makeRepairSpec(0, avail, rng);
    bool differs = false;
    for (int i = 0; i < 10 && !differs; ++i) {
        auto s2 = code.makeRepairSpec(0, avail, rng);
        std::vector<ChunkIndex> h1, h2;
        for (auto &r : s1.reads)
            h1.push_back(r.helper);
        for (auto &r : s2.reads)
            h2.push_back(r.helper);
        std::sort(h1.begin(), h1.end());
        std::sort(h2.begin(), h2.end());
        differs = (h1 != h2);
    }
    EXPECT_TRUE(differs);
}

TEST(RsCode, HelperPoolIsAllSurvivors)
{
    RsCode code(10, 4);
    auto avail = survivorsExcept(code, {3});
    auto pool = code.helperPool(3, avail);
    EXPECT_EQ(pool.candidates.size(), avail.size());
    EXPECT_EQ(pool.required, 10);
    EXPECT_FALSE(pool.fixedSet);
    EXPECT_TRUE(pool.combinable);
}

TEST(RsCode, SpecForArbitraryKSubset)
{
    RsCode code(10, 4);
    Rng rng(11);
    auto chunks = randomStripe(rng, code, 64);
    auto avail = survivorsExcept(code, {5});
    // Specific subset: skip the first three survivors.
    std::vector<ChunkIndex> helpers(avail.begin() + 3,
                                    avail.begin() + 13);
    auto spec = code.specFor(5, helpers);
    ASSERT_TRUE(spec.has_value());
    checkRepair(code, chunks, *spec);
}

TEST(RsCode, SpecForTooFewHelpersFails)
{
    RsCode code(10, 4);
    std::vector<ChunkIndex> helpers = {1, 2, 3};
    EXPECT_FALSE(code.specFor(0, helpers).has_value());
}

TEST(RsCode, PartialCombinationAssociativity)
{
    // The "tunability" property: summing partial relay combinations
    // in any grouping equals the direct decode.
    RsCode code(6, 3);
    Rng rng(13);
    auto chunks = randomStripe(rng, code, 256);
    auto avail = survivorsExcept(code, {2});
    auto spec = code.makeRepairSpec(2, avail, rng);
    ASSERT_GE(spec.reads.size(), 3u);

    const std::size_t size = 256;
    // Grouping A: ((h0+h1)+(h2+...)) — two relays then destination.
    Buffer partial1(size, 0), partial2(size, 0);
    for (std::size_t i = 0; i < spec.reads.size(); ++i) {
        Buffer &target = (i < spec.reads.size() / 2) ? partial1
                                                     : partial2;
        gf::mulAddRegion(
            std::span<uint8_t>(target),
            std::span<const uint8_t>(
                chunks[static_cast<std::size_t>(spec.reads[i].helper)]),
            spec.reads[i].coeff);
    }
    Buffer combined(size, 0);
    gf::addRegion(std::span<uint8_t>(combined),
                  std::span<const uint8_t>(partial1));
    gf::addRegion(std::span<uint8_t>(combined),
                  std::span<const uint8_t>(partial2));
    EXPECT_EQ(combined, chunks[2]);
}

TEST(RsCode, DecodeRejectsMixedChunkSizes)
{
    // A short survivor would otherwise be read past its end by the
    // fused kernel, at the size of whichever survivor came last.
    RsCode code(4, 2);
    Rng rng(14);
    auto chunks = randomStripe(rng, code, 64);
    chunks[0].clear();
    chunks[2].resize(32);
    EXPECT_DEATH(code.decode(chunks), "chunk sizes differ");
}

/**
 * k > 64 through the codec API: encoding rs(72,8) crosses the public
 * entry's 64-source batch and the SIMD kernels' 32-source fold, and
 * decoding 8 erasures fills 8 outputs (two groups of four). Parity is
 * checked against a byte-at-a-time reference. tests/CMakeLists.txt
 * also runs this once per ISA, pinned with CHAMELEON_GF_KERNEL.
 */
TEST(RsCode, WideRoundTripCrossesKernelBatches)
{
    if (const char *want = std::getenv("CHAMELEON_GF_KERNEL")) {
        for (auto isa : gf::detail::availableIsas()) {
            if (std::strcmp(gf::detail::isaName(isa), want) == 0) {
                EXPECT_STREQ(gf::kernelName(), want);
            }
        }
    }
    RsCode code(72, 8);
    const gf::Matrix &gen = code.generator();
    Rng rng(72);
    for (const std::size_t size :
         {std::size_t{1}, std::size_t{33}, std::size_t{100},
          std::size_t{4097}}) {
        auto chunks = randomStripe(rng, code, size);
        for (int p = 0; p < code.m(); ++p) {
            Buffer want(size, 0);
            for (int j = 0; j < code.k(); ++j)
                for (std::size_t i = 0; i < size; ++i)
                    want[i] ^= gf::mul(
                        gen.at(static_cast<std::size_t>(code.k() + p),
                               static_cast<std::size_t>(j)),
                        chunks[static_cast<std::size_t>(j)][i]);
            ASSERT_EQ(chunks[static_cast<std::size_t>(code.k() + p)],
                      want)
                << "parity " << p << " size " << size;
        }
        auto damaged = chunks;
        for (ChunkIndex e : {0, 9, 31, 63, 64, 71, 72, 79})
            damaged[static_cast<std::size_t>(e)].clear();
        ASSERT_TRUE(code.decode(damaged));
        EXPECT_EQ(damaged, chunks) << "size " << size;
    }
}

// --------------------------------------------------------------- LRC

class LrcParamTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(LrcParamTest, DataChunkRepairUsesLocalGroup)
{
    auto [k, l, m] = GetParam();
    LrcCode code(k, l, m);
    Rng rng(400 + k);
    auto chunks = randomStripe(rng, code, 64);

    for (ChunkIndex failed = 0; failed < k; ++failed) {
        auto avail = survivorsExcept(code, {failed});
        auto spec = code.makeRepairSpec(failed, avail, rng);
        // Local repair reads exactly groupSize chunks.
        EXPECT_EQ(spec.reads.size(),
                  static_cast<std::size_t>(code.groupSize()));
        for (const auto &read : spec.reads) {
            int hg = code.groupOf(read.helper);
            EXPECT_EQ(hg, code.groupOf(failed));
        }
        checkRepair(code, chunks, spec);
    }
}

TEST_P(LrcParamTest, LocalParityRepair)
{
    auto [k, l, m] = GetParam();
    LrcCode code(k, l, m);
    Rng rng(500 + k);
    auto chunks = randomStripe(rng, code, 64);
    for (int g = 0; g < l; ++g) {
        ChunkIndex failed = static_cast<ChunkIndex>(k + g);
        auto avail = survivorsExcept(code, {failed});
        auto spec = code.makeRepairSpec(failed, avail, rng);
        EXPECT_EQ(spec.reads.size(),
                  static_cast<std::size_t>(code.groupSize()));
        checkRepair(code, chunks, spec);
    }
}

TEST_P(LrcParamTest, GlobalParityRepairReadsK)
{
    auto [k, l, m] = GetParam();
    LrcCode code(k, l, m);
    Rng rng(600 + k);
    auto chunks = randomStripe(rng, code, 64);
    for (int j = 0; j < m; ++j) {
        ChunkIndex failed = static_cast<ChunkIndex>(k + l + j);
        auto avail = survivorsExcept(code, {failed});
        auto spec = code.makeRepairSpec(failed, avail, rng);
        EXPECT_EQ(spec.reads.size(), static_cast<std::size_t>(k));
        checkRepair(code, chunks, spec);
    }
}

TEST_P(LrcParamTest, DegradedGroupFallsBack)
{
    auto [k, l, m] = GetParam();
    LrcCode code(k, l, m);
    Rng rng(700 + k);
    auto chunks = randomStripe(rng, code, 64);
    // Fail a data chunk plus its local parity: local repair is
    // impossible, global fallback must still work.
    ChunkIndex failed = 0;
    ChunkIndex lp = static_cast<ChunkIndex>(k + code.groupOf(failed));
    auto avail = survivorsExcept(code, {failed, lp});
    auto spec = code.makeRepairSpec(failed, avail, rng);
    checkRepair(code, chunks, spec);
}

TEST_P(LrcParamTest, DecodeMultiFailurePatterns)
{
    auto [k, l, m] = GetParam();
    LrcCode code(k, l, m);
    Rng rng(800 + k);
    auto chunks = randomStripe(rng, code, 32);

    // One failure per local group plus one global parity: a pattern
    // LRC is designed to handle.
    auto damaged = chunks;
    for (int g = 0; g < std::min(l, m); ++g)
        damaged[static_cast<std::size_t>(g * code.groupSize())].clear();
    damaged[static_cast<std::size_t>(k + l)].clear();
    ASSERT_TRUE(code.decode(damaged));
    EXPECT_EQ(damaged, chunks);
}

INSTANTIATE_TEST_SUITE_P(
    Paradigms, LrcParamTest,
    ::testing::Values(std::tuple{4, 2, 2}, std::tuple{8, 2, 2},
                      std::tuple{10, 2, 2}, std::tuple{12, 3, 3}),
    [](const auto &info) {
        return "LRC_" + std::to_string(std::get<0>(info.param)) + "_" +
               std::to_string(std::get<1>(info.param)) + "_" +
               std::to_string(std::get<2>(info.param));
    });

TEST(LrcCode, HelperPoolLocalGroupIsFixed)
{
    LrcCode code(8, 2, 2);
    auto avail = survivorsExcept(code, {0});
    auto pool = code.helperPool(0, avail);
    EXPECT_TRUE(pool.fixedSet);
    EXPECT_EQ(pool.required, code.groupSize());
    EXPECT_EQ(pool.candidates.size(),
              static_cast<std::size_t>(code.groupSize()));
}

TEST(LrcCode, RepairTrafficSavingsVsRs)
{
    // The motivating property: LRC single-data-chunk repair reads
    // fewer chunks than RS with the same k.
    LrcCode lrc(10, 2, 2);
    RsCode rs(10, 4);
    Rng rng(15);
    auto lrc_avail = survivorsExcept(lrc, {0});
    auto rs_avail = survivorsExcept(rs, {0});
    auto lrc_spec = lrc.makeRepairSpec(0, lrc_avail, rng);
    auto rs_spec = rs.makeRepairSpec(0, rs_avail, rng);
    EXPECT_EQ(lrc_spec.reads.size(), 5u);
    EXPECT_EQ(rs_spec.reads.size(), 10u);
}

// --------------------------------------------------------- Butterfly

TEST(Butterfly, EncodeDecodeRoundTripAllSinglePatterns)
{
    ButterflyCode code;
    Rng rng(21);
    auto chunks = randomStripe(rng, code, 128);
    for (ChunkIndex failed = 0; failed < 4; ++failed) {
        auto damaged = chunks;
        damaged[static_cast<std::size_t>(failed)].clear();
        ASSERT_TRUE(code.decode(damaged));
        EXPECT_EQ(damaged, chunks) << "failed=" << failed;
    }
}

TEST(Butterfly, DecodeAllDoublePatterns)
{
    ButterflyCode code;
    Rng rng(22);
    auto chunks = randomStripe(rng, code, 64);
    for (ChunkIndex a = 0; a < 4; ++a) {
        for (ChunkIndex b = a + 1; b < 4; ++b) {
            auto damaged = chunks;
            damaged[static_cast<std::size_t>(a)].clear();
            damaged[static_cast<std::size_t>(b)].clear();
            ASSERT_TRUE(code.decode(damaged))
                << "pattern " << a << "," << b;
            EXPECT_EQ(damaged, chunks);
        }
    }
}

TEST(Butterfly, TripleFailureRejected)
{
    ButterflyCode code;
    Rng rng(23);
    auto chunks = randomStripe(rng, code, 64);
    chunks[0].clear();
    chunks[1].clear();
    chunks[2].clear();
    EXPECT_FALSE(code.decode(chunks));
}

TEST(Butterfly, SingleRepairIsSubChunk)
{
    ButterflyCode code;
    Rng rng(24);
    auto chunks = randomStripe(rng, code, 256);
    for (ChunkIndex failed = 0; failed < 4; ++failed) {
        auto avail = survivorsExcept(code, {failed});
        auto spec = code.makeRepairSpec(failed, avail, rng);
        EXPECT_FALSE(spec.combinable);
        double traffic = 0.0;
        for (const auto &read : spec.reads)
            traffic += read.fraction;
        if (failed < 3) {
            // Data nodes and P repair with 1.5 chunks of traffic.
            EXPECT_DOUBLE_EQ(traffic, 1.5) << "failed=" << failed;
        } else {
            // The butterfly parity needs 2.0 (systematic-MSR limit).
            EXPECT_DOUBLE_EQ(traffic, 2.0);
        }
        checkRepair(code, chunks, spec);
    }
}

TEST(Butterfly, RepairBeatsRsTraffic)
{
    // Butterfly's raison d'etre: 1.5 vs RS(2,2)'s 2.0 chunks.
    ButterflyCode butterfly;
    RsCode rs(2, 2);
    Rng rng(25);
    auto b_avail = survivorsExcept(butterfly, {0});
    auto r_avail = survivorsExcept(rs, {0});
    auto b_spec = butterfly.makeRepairSpec(0, b_avail, rng);
    auto r_spec = rs.makeRepairSpec(0, r_avail, rng);
    double b_traffic = 0.0, r_traffic = 0.0;
    for (auto &read : b_spec.reads)
        b_traffic += read.fraction;
    for (auto &read : r_spec.reads)
        r_traffic += read.fraction;
    EXPECT_LT(b_traffic, r_traffic);
}

TEST(Butterfly, DecodeRejectsMixedChunkSizes)
{
    ButterflyCode code;
    Rng rng(24);
    auto chunks = randomStripe(rng, code, 64);
    chunks[0].clear();
    chunks[1].resize(32);
    EXPECT_DEATH(code.decode(chunks), "chunk sizes differ");
}

TEST(Butterfly, RepairRejectsMixedChunkSizes)
{
    ButterflyCode code;
    Rng rng(25);
    auto chunks = randomStripe(rng, code, 64);
    auto spec = code.makeRepairSpec(0, survivorsExcept(code, {0}), rng);
    std::vector<Buffer> helper_data;
    for (const auto &read : spec.reads)
        helper_data.push_back(
            chunks[static_cast<std::size_t>(read.helper)]);
    helper_data.back().resize(32);
    EXPECT_DEATH(code.repairCompute(spec, helper_data),
                 "chunk sizes differ");
}

TEST(Butterfly, EncodeRejectsOddChunkSize)
{
    ButterflyCode code;
    std::vector<Buffer> data = {Buffer(7, 1), Buffer(7, 2)};
    EXPECT_DEATH(code.encode(data), "even chunk size");
}

// ------------------------------------------------------------ Factory

TEST(Factory, ProducesWorkingCodes)
{
    Rng rng(31);
    auto rs = makeRs(6, 3);
    auto lrc = makeLrc(8, 2, 2);
    auto butterfly = makeButterfly();
    for (const auto &code : {rs, lrc, butterfly}) {
        auto chunks = randomStripe(rng, *code, 64);
        auto avail = survivorsExcept(*code, {1});
        auto spec = code->makeRepairSpec(1, avail, rng);
        checkRepair(*code, chunks, spec);
    }
}

TEST(Factory, Names)
{
    EXPECT_EQ(makeRs(10, 4)->name(), "RS(10,4)");
    EXPECT_EQ(makeLrc(10, 2, 2)->name(), "LRC(10,2,2)");
    EXPECT_EQ(makeButterfly()->name(), "Butterfly(4,2)");
}

} // namespace
} // namespace ec
} // namespace chameleon

namespace chameleon {
namespace ec {
namespace {

TEST(Replication, EncodeProducesIdenticalCopies)
{
    ReplicatedCode code(3);
    EXPECT_EQ(code.k(), 1);
    EXPECT_EQ(code.n(), 3);
    Rng rng(51);
    std::vector<Buffer> data = {Buffer(64)};
    for (auto &v : data[0])
        v = static_cast<uint8_t>(rng.below(256));
    auto parity = code.encode(data);
    ASSERT_EQ(parity.size(), 2u);
    EXPECT_EQ(parity[0], data[0]);
    EXPECT_EQ(parity[1], data[0]);
}

TEST(Replication, RepairReadsExactlyOneCopy)
{
    ReplicatedCode code(3);
    Rng rng(52);
    std::vector<ChunkIndex> avail = {1, 2};
    auto spec = code.makeRepairSpec(0, avail, rng);
    ASSERT_EQ(spec.reads.size(), 1u);
    EXPECT_EQ(spec.reads[0].coeff, gf::kOne);
    EXPECT_DOUBLE_EQ(spec.reads[0].fraction, 1.0);
}

TEST(Replication, DecodeFromAnySingleSurvivor)
{
    ReplicatedCode code(3);
    Rng rng(53);
    std::vector<Buffer> data = {Buffer(32)};
    for (auto &v : data[0])
        v = static_cast<uint8_t>(rng.below(256));
    auto parity = code.encode(data);
    std::vector<Buffer> chunks = {data[0], parity[0], parity[1]};
    auto damaged = chunks;
    damaged[0].clear();
    damaged[2].clear();
    ASSERT_TRUE(code.decode(damaged));
    EXPECT_EQ(damaged, chunks);
}

TEST(Replication, RepairTrafficBeatsRsButStorageLoses)
{
    // The paper's framing: replication repairs with 1 chunk of
    // traffic (vs k) but costs 3x storage (vs (k+m)/k).
    auto repl = makeReplicated(3);
    auto rs = makeRs(10, 4);
    Rng rng(54);
    std::vector<ChunkIndex> repl_avail = {1, 2};
    auto repl_spec = repl->makeRepairSpec(0, repl_avail, rng);
    std::vector<ChunkIndex> rs_avail;
    for (ChunkIndex c = 1; c < rs->n(); ++c)
        rs_avail.push_back(c);
    auto rs_spec = rs->makeRepairSpec(0, rs_avail, rng);
    EXPECT_EQ(repl_spec.reads.size(), 1u);
    EXPECT_EQ(rs_spec.reads.size(), 10u);
    double repl_overhead = 3.0 / 1.0;
    double rs_overhead = 14.0 / 10.0;
    EXPECT_GT(repl_overhead, rs_overhead);
}

// ------------------------------------ capability queries (ICodec)

/** Registry specs small enough for exhaustive pattern sweeps. */
std::vector<std::string>
sweepSpecs()
{
    return {"rs(4,2)", "rs(6,3)",   "lrc(6,2,2)",
            "lrc(8,2,2,2)", "butterfly", "rep(3)"};
}

/** Calls fn(pattern) for every size-t subset of [0, n). */
void
forEachPattern(int n, int t,
               const std::function<void(std::vector<ChunkIndex> &)> &fn)
{
    std::vector<ChunkIndex> pattern(static_cast<std::size_t>(t));
    std::function<void(int, int)> rec = [&](int start, int depth) {
        if (depth == t) {
            fn(pattern);
            return;
        }
        for (int i = start; i < n; ++i) {
            pattern[static_cast<std::size_t>(depth)] =
                static_cast<ChunkIndex>(i);
            rec(i + 1, depth + 1);
        }
    };
    rec(0, 0);
}

TEST(CodecCapability, CanRepairMatchesDecodeExhaustively)
{
    // canRepair is exactly decode's success predicate, for every
    // registered family and every pattern up to the total parity.
    for (const auto &spec : sweepSpecs()) {
        auto code = makeCode(spec);
        Rng rng(61);
        auto chunks = randomStripe(rng, *code, 64);
        for (int t = 1; t <= code->totalParity(); ++t) {
            forEachPattern(
                code->n(), t, [&](std::vector<ChunkIndex> &pattern) {
                    bool can = code->canRepair(pattern);
                    auto damaged = chunks;
                    for (ChunkIndex c : pattern)
                        damaged[static_cast<std::size_t>(c)].clear();
                    bool decoded = code->decode(damaged);
                    EXPECT_EQ(can, decoded)
                        << spec << " pattern size " << t
                        << " first erased " << pattern[0];
                    if (decoded) {
                        EXPECT_EQ(damaged, chunks) << spec;
                    }
                });
        }
        // One past the total parity can never repair.
        std::vector<ChunkIndex> over;
        for (int i = 0; i <= code->totalParity(); ++i)
            over.push_back(static_cast<ChunkIndex>(i));
        EXPECT_FALSE(code->canRepair(over)) << spec;
    }
}

TEST(CodecCapability, RepairIndicesMinimalAndSufficient)
{
    for (const auto &spec : sweepSpecs()) {
        auto code = makeCode(spec);
        Rng rng(62);
        auto chunks = randomStripe(rng, *code, 64);
        for (ChunkIndex f = 0; f < code->n(); ++f) {
            std::vector<ChunkIndex> erased = {f};
            auto indices = code->repairIndices(erased);
            ASSERT_TRUE(indices.has_value()) << spec;
            // Sorted, duplicate-free survivors.
            EXPECT_TRUE(
                std::is_sorted(indices->begin(), indices->end()));
            EXPECT_EQ(std::adjacent_find(indices->begin(),
                                         indices->end()),
                      indices->end());
            EXPECT_EQ(std::find(indices->begin(), indices->end(), f),
                      indices->end());
            // Sufficient: an explicit spec over exactly this set
            // reconstructs the chunk bit-exactly.
            auto repair = code->specFor(f, *indices);
            ASSERT_TRUE(repair.has_value()) << spec << " chunk " << f;
            checkRepair(*code, chunks, *repair);
            // Irredundant: no member can be dropped.
            for (std::size_t drop = 0; drop < indices->size();
                 ++drop) {
                auto reduced = *indices;
                reduced.erase(reduced.begin() +
                              static_cast<std::ptrdiff_t>(drop));
                EXPECT_FALSE(code->specFor(f, reduced).has_value())
                    << spec << " chunk " << f << " minus helper "
                    << (*indices)[drop];
            }
        }
        // Unrepairable patterns yield nullopt, not a bogus set.
        std::vector<ChunkIndex> over;
        for (int i = 0; i <= code->totalParity(); ++i)
            over.push_back(static_cast<ChunkIndex>(i));
        EXPECT_FALSE(code->repairIndices(over).has_value()) << spec;
    }
}

TEST(CodecCapability, RepairIndicesDeterministic)
{
    for (const auto &spec : sweepSpecs()) {
        auto code = makeCode(spec);
        for (ChunkIndex f = 0; f < code->n(); ++f) {
            std::vector<ChunkIndex> erased = {f};
            EXPECT_EQ(code->repairIndices(erased),
                      code->repairIndices(erased))
                << spec;
        }
    }
}

TEST(CodecCapability, GuaranteedCountMatchesBruteForce)
{
    // guaranteedRepairableCount is the largest f with EVERY size-f
    // pattern repairable; recompute it from canRepair directly.
    for (const auto &spec : sweepSpecs()) {
        auto code = makeCode(spec);
        int brute = 0;
        for (int t = 1; t <= code->totalParity(); ++t) {
            bool all = true;
            forEachPattern(code->n(), t,
                           [&](std::vector<ChunkIndex> &pattern) {
                               if (!code->canRepair(pattern))
                                   all = false;
                           });
            if (!all)
                break;
            brute = t;
        }
        EXPECT_EQ(code->guaranteedRepairableCount(), brute) << spec;
    }
}

// ---------------------------------------------- the codec registry

TEST(CodecRegistry, RegisteredFamiliesEnumerated)
{
    const auto &families = registeredCodecs();
    ASSERT_EQ(families.size(), 4u);
    std::vector<std::string> keys;
    for (const auto &f : families) {
        keys.push_back(f.key);
        EXPECT_FALSE(f.grammar.empty());
        EXPECT_FALSE(f.summary.empty());
    }
    EXPECT_EQ(keys, (std::vector<std::string>{"rs", "lrc",
                                              "butterfly", "rep"}));
}

TEST(CodecRegistry, MatchesTypedConstructorsByteExact)
{
    // Registry-built codes must behave byte-identically to the typed
    // constructors the pre-registry call sites used.
    struct Pair
    {
        std::string spec;
        std::shared_ptr<const ErasureCode> oracle;
    };
    const std::vector<Pair> pairs = {
        {"rs(10,4)", makeRs(10, 4)},
        {"lrc(10,2,2)", makeLrc(10, 2, 2)},
        {"butterfly", makeButterfly()},
    };
    for (const auto &[spec, oracle] : pairs) {
        auto code = makeCode(spec);
        EXPECT_EQ(code->name(), oracle->name());
        ASSERT_EQ(code->n(), oracle->n());
        Rng data_rng(63);
        std::vector<Buffer> data;
        for (int i = 0; i < code->k(); ++i)
            data.push_back(randomChunk(data_rng, 128));
        EXPECT_EQ(code->encode(data), oracle->encode(data)) << spec;
        // Same rng stream -> same helper choice -> same spec.
        std::vector<ChunkIndex> avail;
        for (ChunkIndex c = 1; c < code->n(); ++c)
            avail.push_back(c);
        Rng a(64), b(64);
        auto sa = code->makeRepairSpec(0, avail, a);
        auto sb = oracle->makeRepairSpec(0, avail, b);
        ASSERT_EQ(sa.reads.size(), sb.reads.size()) << spec;
        for (std::size_t i = 0; i < sa.reads.size(); ++i) {
            EXPECT_EQ(sa.reads[i].helper, sb.reads[i].helper);
            EXPECT_EQ(sa.reads[i].coeff, sb.reads[i].coeff);
        }
    }
}

TEST(CodecRegistry, ColonAliasEquivalence)
{
    Rng rng(65);
    auto modern = makeCode("rs(10,4)");
    auto legacy = makeCode("rs:10,4");
    EXPECT_EQ(modern->name(), legacy->name());
    std::vector<Buffer> data;
    for (int i = 0; i < modern->k(); ++i)
        data.push_back(randomChunk(rng, 64));
    EXPECT_EQ(modern->encode(data), legacy->encode(data));
}

TEST(CodecRegistry, MalformedSpecsRejectedWithDiagnostic)
{
    const std::vector<std::string> bad = {
        "",         "rs",          "rs()",        "rs(10,)",
        "rs(,4)",   "rs(10,4",     "rs 10,4",     "rs(10,4))",
        "rs(0,4)",  "rs(10,0)",    "rs(250,10)",  "rs(10,4,2)",
        "lrc(10)",  "lrc(10,2)",   "lrc(2,4,2)",  "lrc(10,2,2,2,2)",
        "rep()",    "rep(1)",      "rep(300)",    "butterfly(4,2)",
        "bogus",    "bogus(1,2)",  "rs(1e1,4)",   "rs(10,4)x",
    };
    for (const auto &spec : bad) {
        std::string error;
        EXPECT_EQ(tryMakeCode(spec, &error), nullptr) << spec;
        EXPECT_FALSE(error.empty()) << spec;
    }
}

// ------------------------------------- wide-RS + multi-group LRC

TEST(WideCode, Rs24SingleRepairAllPositions)
{
    auto code = makeCode("rs(24,8)");
    ASSERT_EQ(code->n(), 32);
    EXPECT_EQ(code->guaranteedRepairableCount(), 8);
    Rng rng(66);
    auto chunks = randomStripe(rng, *code, 128);
    for (ChunkIndex f = 0; f < code->n(); ++f) {
        auto avail = survivorsExcept(*code, {f});
        auto spec = code->makeRepairSpec(f, avail, rng);
        EXPECT_EQ(spec.reads.size(),
                  static_cast<std::size_t>(code->k()));
        checkRepair(*code, chunks, spec);
    }
}

TEST(WideCode, Rs24DecodeAtAndBeyondGuarantee)
{
    auto code = makeCode("rs(24,8)");
    Rng rng(67);
    auto chunks = randomStripe(rng, *code, 128);
    // Random size-8 patterns all decode (C(32,8) is too many to
    // sweep; sampling exercises the wide decode matrix).
    for (int trial = 0; trial < 24; ++trial) {
        std::vector<ChunkIndex> pattern;
        while (pattern.size() < 8) {
            auto c = static_cast<ChunkIndex>(
                rng.below(static_cast<uint64_t>(code->n())));
            if (std::find(pattern.begin(), pattern.end(), c) ==
                pattern.end())
                pattern.push_back(c);
        }
        std::sort(pattern.begin(), pattern.end());
        EXPECT_TRUE(code->canRepair(pattern));
        auto damaged = chunks;
        for (ChunkIndex c : pattern)
            damaged[static_cast<std::size_t>(c)].clear();
        ASSERT_TRUE(code->decode(damaged));
        EXPECT_EQ(damaged, chunks);
    }
    // Nine failures exceed the parity budget.
    std::vector<ChunkIndex> nine;
    for (ChunkIndex c = 0; c < 9; ++c)
        nine.push_back(c);
    EXPECT_FALSE(code->canRepair(nine));
    auto damaged = chunks;
    for (ChunkIndex c : nine)
        damaged[static_cast<std::size_t>(c)].clear();
    EXPECT_FALSE(code->decode(damaged));
}

TEST(WideCode, MultiGroupLrcLayoutAndLocalRepair)
{
    // lrc(24,4,2,2): 4 groups of 6 data chunks, 2 local parities
    // per group, 2 global parities -> n = 24 + 8 + 2.
    auto code = makeCode("lrc(24,4,2,2)");
    ASSERT_EQ(code->k(), 24);
    ASSERT_EQ(code->n(), 34);
    EXPECT_EQ(code->totalParity(), 10);
    Rng rng(68);
    auto chunks = randomStripe(rng, *code, 64);
    for (ChunkIndex f = 0; f < code->n(); ++f) {
        auto avail = survivorsExcept(*code, {f});
        auto spec = code->makeRepairSpec(f, avail, rng);
        checkRepair(*code, chunks, spec);
        // Data and local-parity repairs stay inside the group: far
        // fewer reads than the global k.
        if (f < 32) {
            EXPECT_LT(spec.reads.size(),
                      static_cast<std::size_t>(code->k()))
                << "chunk " << f;
        }
    }
}

TEST(WideCode, MultiGroupLrcSurvivesTwoPerGroup)
{
    // g=2 local parities make any two failures inside one group
    // locally repairable; heavier in-group patterns lean on the two
    // globals until they run out.
    auto code = makeCode("lrc(12,2,2,2)");
    ASSERT_EQ(code->n(), 18);
    EXPECT_EQ(code->guaranteedRepairableCount(), 3);
    std::vector<ChunkIndex> two_in_group = {0, 1};
    EXPECT_TRUE(code->canRepair(two_in_group));
    Rng rng(69);
    auto chunks = randomStripe(rng, *code, 64);
    std::vector<ChunkIndex> four_in_group = {0, 1, 2, 3};
    auto damaged = chunks;
    for (ChunkIndex c : four_in_group)
        damaged[static_cast<std::size_t>(c)].clear();
    // canRepair and decode must agree on the heavy pattern either
    // way (the exhaustive sweep pins the equivalence; this leg pins
    // the multi-group layout specifically).
    EXPECT_EQ(code->decode(damaged), code->canRepair(four_in_group));
    if (!damaged[0].empty()) {
        EXPECT_EQ(damaged, chunks);
    }
}

} // namespace
} // namespace ec
} // namespace chameleon
