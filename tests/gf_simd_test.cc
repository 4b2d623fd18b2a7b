/**
 * @file
 * Property tests for the GF(2^8) region-kernel variants: every
 * compiled-in, CPU-supported kernel must be byte-identical to the
 * scalar reference for random sizes (0–4097, crossing every
 * SIMD-width and tail boundary), random buffer misalignments, and
 * all 256 coefficients. Runs under the ASan/UBSan CI job, so the
 * unaligned-load paths and tail handling also get sanitizer
 * coverage.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "gf/gf256.hh"
#include "gf/gf_kernels.hh"
#include "util/rng.hh"

namespace chameleon {
namespace gf {
namespace {

using detail::Isa;
using detail::Kernels;

/** Arena with room to place regions at arbitrary misalignments. */
constexpr std::size_t kMaxSize = 4097;
constexpr std::size_t kMaxAlign = 63;
constexpr std::size_t kArena = kMaxSize + kMaxAlign;

std::vector<uint8_t>
randomBytes(Rng &rng, std::size_t n)
{
    std::vector<uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<uint8_t>(rng.below(256));
    return v;
}

class GfKernelParity : public ::testing::TestWithParam<Isa>
{
};

TEST_P(GfKernelParity, MulAddRandomSizesAlignmentsCoeffs)
{
    const Kernels &k = detail::kernels(GetParam());
    const Kernels &ref = detail::scalarKernels();
    Rng rng(0xC0DEC);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t n = rng.below(kMaxSize + 1);
        const std::size_t doff = rng.below(kMaxAlign + 1);
        const std::size_t soff = rng.below(kMaxAlign + 1);
        const uint8_t c = static_cast<uint8_t>(1 + rng.below(255));
        auto dst = randomBytes(rng, kArena);
        auto src = randomBytes(rng, kArena);
        auto expect = dst;
        ref.mulAdd(expect.data() + doff, src.data() + soff, n, c);
        k.mulAdd(dst.data() + doff, src.data() + soff, n, c);
        ASSERT_EQ(dst, expect)
            << "kernel " << k.name << " trial " << trial << " n=" << n
            << " doff=" << doff << " soff=" << soff << " c=" << int(c);
    }
}

TEST_P(GfKernelParity, MulAddAllCoefficients)
{
    const Kernels &k = detail::kernels(GetParam());
    const Kernels &ref = detail::scalarKernels();
    Rng rng(0xA11C0);
    const std::size_t n = 1031; // prime: exercises every tail length
    for (int c = 1; c < 256; ++c) {
        const std::size_t doff = rng.below(kMaxAlign + 1);
        const std::size_t soff = rng.below(kMaxAlign + 1);
        auto dst = randomBytes(rng, kArena);
        auto src = randomBytes(rng, kArena);
        auto expect = dst;
        ref.mulAdd(expect.data() + doff, src.data() + soff, n,
                   static_cast<uint8_t>(c));
        k.mulAdd(dst.data() + doff, src.data() + soff, n,
                 static_cast<uint8_t>(c));
        ASSERT_EQ(dst, expect) << "kernel " << k.name << " c=" << c;
    }
}

TEST_P(GfKernelParity, MulRandomized)
{
    const Kernels &k = detail::kernels(GetParam());
    const Kernels &ref = detail::scalarKernels();
    Rng rng(0x5EED1);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = rng.below(kMaxSize + 1);
        const std::size_t doff = rng.below(kMaxAlign + 1);
        const std::size_t soff = rng.below(kMaxAlign + 1);
        const uint8_t c = static_cast<uint8_t>(1 + rng.below(255));
        auto dst = randomBytes(rng, kArena);
        auto src = randomBytes(rng, kArena);
        auto expect = dst;
        ref.mul(expect.data() + doff, src.data() + soff, n, c);
        k.mul(dst.data() + doff, src.data() + soff, n, c);
        ASSERT_EQ(dst, expect)
            << "kernel " << k.name << " trial " << trial;
    }
}

TEST_P(GfKernelParity, AddRandomized)
{
    const Kernels &k = detail::kernels(GetParam());
    const Kernels &ref = detail::scalarKernels();
    Rng rng(0x5EED2);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = rng.below(kMaxSize + 1);
        const std::size_t doff = rng.below(kMaxAlign + 1);
        const std::size_t soff = rng.below(kMaxAlign + 1);
        auto dst = randomBytes(rng, kArena);
        auto src = randomBytes(rng, kArena);
        auto expect = dst;
        ref.add(expect.data() + doff, src.data() + soff, n);
        k.add(dst.data() + doff, src.data() + soff, n);
        ASSERT_EQ(dst, expect)
            << "kernel " << k.name << " trial " << trial;
    }
}

TEST_P(GfKernelParity, MulAddMultiMatchesSequentialMulAdds)
{
    const Kernels &k = detail::kernels(GetParam());
    const Kernels &ref = detail::scalarKernels();
    Rng rng(0x5EED3);
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t n = rng.below(kMaxSize + 1);
        const std::size_t nsrc = 1 + rng.below(14);
        auto dst = randomBytes(rng, kArena);
        auto expect = dst;
        std::vector<std::vector<uint8_t>> srcs;
        std::vector<const uint8_t *> ptrs;
        std::vector<uint8_t> coeffs;
        for (std::size_t j = 0; j < nsrc; ++j) {
            srcs.push_back(randomBytes(rng, kMaxSize));
            coeffs.push_back(
                static_cast<uint8_t>(1 + rng.below(255)));
        }
        for (auto &s : srcs)
            ptrs.push_back(s.data());
        const std::size_t doff = rng.below(kMaxAlign + 1);
        for (std::size_t j = 0; j < nsrc; ++j)
            ref.mulAdd(expect.data() + doff, ptrs[j], n, coeffs[j]);
        uint8_t *const d = dst.data() + doff;
        k.mulAddMulti(&d, 1, ptrs.data(), coeffs.data(), nsrc, n);
        ASSERT_EQ(dst, expect)
            << "kernel " << k.name << " trial " << trial << " n=" << n
            << " nsrc=" << nsrc;
    }
}

/** Wide-matrix leg (Exp#17): one RS(24,8)-shaped row — 24 sources
 * in a single fused pass, the widest row any registered code
 * produces — byte-identical to 24 sequential scalar passes across
 * SIMD-width-crossing sizes and misalignments. */
TEST_P(GfKernelParity, WideMatrixRowK24Parity)
{
    const Kernels &k = detail::kernels(GetParam());
    const Kernels &ref = detail::scalarKernels();
    Rng rng(0x5EED24);
    constexpr std::size_t kWideK = 24;
    std::vector<std::vector<uint8_t>> srcs;
    std::vector<const uint8_t *> ptrs;
    for (std::size_t j = 0; j < kWideK; ++j)
        srcs.push_back(randomBytes(rng, kMaxSize));
    for (auto &s : srcs)
        ptrs.push_back(s.data());
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{31}, std::size_t{32},
          std::size_t{33}, std::size_t{255}, std::size_t{4096},
          kMaxSize}) {
        std::vector<uint8_t> coeffs;
        for (std::size_t j = 0; j < kWideK; ++j)
            coeffs.push_back(
                static_cast<uint8_t>(1 + rng.below(255)));
        const std::size_t doff = rng.below(kMaxAlign + 1);
        auto dst = randomBytes(rng, kArena);
        auto expect = dst;
        for (std::size_t j = 0; j < kWideK; ++j)
            ref.mulAdd(expect.data() + doff, ptrs[j], n, coeffs[j]);
        uint8_t *const d = dst.data() + doff;
        k.mulAddMulti(&d, 1, ptrs.data(), coeffs.data(), kWideK, n);
        ASSERT_EQ(dst, expect)
            << "kernel " << k.name << " n=" << n << " doff=" << doff;
    }
}

TEST_P(GfKernelParity, ZeroLengthIsNoop)
{
    const Kernels &k = detail::kernels(GetParam());
    std::vector<uint8_t> dst = {1, 2, 3}, src = {4, 5, 6};
    auto before = dst;
    k.mulAdd(dst.data(), src.data(), 0, 0x35);
    k.add(dst.data(), src.data(), 0);
    k.mul(dst.data(), src.data(), 0, 0x35);
    const uint8_t *ptrs[1] = {src.data()};
    const uint8_t coeffs[1] = {0x35};
    uint8_t *const d = dst.data();
    k.mulAddMulti(&d, 1, ptrs, coeffs, 1, 0);
    // Several outputs, zeros inside the matrix, and the public entry.
    std::vector<uint8_t> dst2 = {7, 8, 9};
    uint8_t *const dsts[2] = {dst.data(), dst2.data()};
    const uint8_t matrix[2] = {0x35, 0};
    k.mulAddMulti(dsts, 2, ptrs, matrix, 1, 0);
    mulAddRegionMatrix(dsts, 0, ptrs, matrix);
    EXPECT_EQ(dst, before);
    EXPECT_EQ(dst2, (std::vector<uint8_t>{7, 8, 9}));
}

/**
 * A random ndst x nsrc coefficient matrix for the multi-output
 * kernel: about a quarter of the entries are zero, and one row and
 * one column are often all zero.
 */
std::vector<uint8_t>
randomMatrix(Rng &rng, std::size_t ndst, std::size_t nsrc)
{
    std::vector<uint8_t> m(ndst * nsrc);
    for (auto &c : m)
        c = rng.below(4) == 0 ? 0
                              : static_cast<uint8_t>(1 + rng.below(255));
    if (rng.below(3) == 0) {
        const std::size_t o = rng.below(ndst);
        for (std::size_t j = 0; j < nsrc; ++j)
            m[o * nsrc + j] = 0;
    }
    if (rng.below(3) == 0) {
        const std::size_t j = rng.below(nsrc);
        for (std::size_t o = 0; o < ndst; ++o)
            m[o * nsrc + j] = 0;
    }
    return m;
}

/** Random outputs at random misalignments, plus the expected bytes
 * from one scalar mulAdd pass per nonzero coefficient. */
struct MatrixCase
{
    std::vector<std::vector<uint8_t>> srcs, dsts, expect;
    std::vector<const uint8_t *> src_ptrs;
    std::vector<uint8_t *> dst_ptrs;
    std::vector<uint8_t> coeffs;
    std::size_t n = 0;

    MatrixCase(Rng &rng, std::size_t ndst, std::size_t nsrc,
               std::size_t size)
        : coeffs(randomMatrix(rng, ndst, nsrc)), n(size)
    {
        const Kernels &ref = detail::scalarKernels();
        for (std::size_t j = 0; j < nsrc; ++j) {
            srcs.push_back(randomBytes(rng, kArena));
            src_ptrs.push_back(srcs.back().data() +
                               rng.below(kMaxAlign + 1));
        }
        for (std::size_t o = 0; o < ndst; ++o) {
            dsts.push_back(randomBytes(rng, kArena));
            expect.push_back(dsts.back());
            const std::size_t off = rng.below(kMaxAlign + 1);
            dst_ptrs.push_back(dsts.back().data() + off);
            for (std::size_t j = 0; j < nsrc; ++j) {
                const uint8_t c = coeffs[o * nsrc + j];
                if (c != 0)
                    ref.mulAdd(expect.back().data() + off, src_ptrs[j],
                               n, c);
            }
        }
    }
};

/** The multi-output kernel against per-output scalar passes: 1-8
 * outputs (two groups of four on SIMD), 1-70 sources (past the
 * kernels' 32-source fold), every size and misalignment class, and
 * matrices with scattered zeros, zero rows and zero columns. */
TEST_P(GfKernelParity, MulAddMultiMatchesPerOutputMulAdds)
{
    const Kernels &k = detail::kernels(GetParam());
    Rng rng(0x5EED5);
    for (int trial = 0; trial < 150; ++trial) {
        const std::size_t ndst = 1 + rng.below(8);
        const std::size_t nsrc = 1 + rng.below(70);
        MatrixCase mc(rng, ndst, nsrc, rng.below(kMaxSize + 1));
        k.mulAddMulti(mc.dst_ptrs.data(), ndst, mc.src_ptrs.data(),
                      mc.coeffs.data(), nsrc, mc.n);
        for (std::size_t o = 0; o < ndst; ++o)
            ASSERT_EQ(mc.dsts[o], mc.expect[o])
                << "kernel " << k.name << " trial " << trial
                << " output " << o << " of " << ndst << " nsrc=" << nsrc
                << " n=" << mc.n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailableIsas, GfKernelParity,
    ::testing::ValuesIn(detail::availableIsas()),
    [](const ::testing::TestParamInfo<Isa> &info) {
        return detail::isaName(info.param);
    });

/** The public dispatched entry points agree with the reference too
 * (covers the zero/one special-casing and the multi zero-coeff
 * stripping in gf256.cc). */
TEST(GfDispatch, PublicApiMatchesScalarReference)
{
    Rng rng(0xD15);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = rng.below(kMaxSize + 1);
        const uint8_t c = static_cast<uint8_t>(rng.below(256));
        std::vector<uint8_t> dst = randomBytes(rng, n);
        std::vector<uint8_t> src = randomBytes(rng, n);
        auto expect = dst;
        for (std::size_t i = 0; i < n; ++i)
            expect[i] = add(expect[i], mul(c, src[i]));
        mulAddRegion(dst, src, c);
        ASSERT_EQ(dst, expect) << "trial " << trial;
    }
}

TEST(GfDispatch, MultiSkipsZeroCoefficients)
{
    Rng rng(0xD16);
    const std::size_t n = 777;
    std::vector<uint8_t> dst = randomBytes(rng, n);
    std::vector<uint8_t> a = randomBytes(rng, n);
    std::vector<uint8_t> b = randomBytes(rng, n);
    auto expect = dst;
    mulAddRegion(expect, b, 0x42);
    const uint8_t *ptrs[3] = {a.data(), b.data(), a.data()};
    const uint8_t coeffs[3] = {0, 0x42, 0};
    mulAddRegionMulti(dst, ptrs, coeffs);
    EXPECT_EQ(dst, expect);

    // Matrix entry: an all-zero column is never read (a null source
    // would trip the null-region check), while a zero inside a live
    // column is applied as a no-op.
    std::vector<uint8_t> dst2 = randomBytes(rng, n);
    auto expect2 = dst2;
    mulAddRegion(expect2, a, 0x17);
    mulAddRegion(expect, b, 0x03);
    const uint8_t *mptrs[3] = {a.data(), nullptr, b.data()};
    const uint8_t matrix[6] = {0, 0, 0x03, 0x17, 0, 0};
    uint8_t *const dsts[2] = {dst.data(), dst2.data()};
    mulAddRegionMatrix(dsts, n, mptrs, matrix);
    EXPECT_EQ(dst, expect);
    EXPECT_EQ(dst2, expect2);
}

/** The public matrix entry on the active kernel: 1-10 outputs (past
 * its 8-row split) and 1-70 sources (past its 64-source batch). */
TEST(GfDispatch, MatrixMatchesPerOutputScalar)
{
    Rng rng(0xD17);
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t ndst = 1 + rng.below(10);
        const std::size_t nsrc = 1 + rng.below(70);
        MatrixCase mc(rng, ndst, nsrc, rng.below(kMaxSize + 1));
        mulAddRegionMatrix(mc.dst_ptrs, mc.n, mc.src_ptrs, mc.coeffs);
        for (std::size_t o = 0; o < ndst; ++o)
            ASSERT_EQ(mc.dsts[o], mc.expect[o])
                << "trial " << trial << " output " << o << " of "
                << ndst << " nsrc=" << nsrc << " n=" << mc.n;
    }
}

TEST(GfDispatch, ActiveKernelIsListedAsAvailable)
{
    const auto avail = detail::availableIsas();
    ASSERT_FALSE(avail.empty());
    bool found = false;
    for (Isa isa : avail)
        found = found || (isa == detail::activeIsa());
    EXPECT_TRUE(found);
    EXPECT_STREQ(kernelName(), detail::isaName(detail::activeIsa()));
#ifdef CHAMELEON_FORCE_SCALAR
    EXPECT_STREQ(kernelName(), "scalar");
#endif
}

} // namespace
} // namespace gf
} // namespace chameleon
