/**
 * @file
 * AVX2 split-nibble kernels: the SSSE3 scheme widened to 32 lanes
 * with vpshufb (which shuffles within each 128-bit half — exactly
 * right here, since both halves want the same 16-entry table). The
 * main loops run 64 bytes per iteration (two accumulators) to cover
 * load latency; tails fall back to the scalar reference.
 *
 * This TU is compiled with -mavx2; nothing outside may call into it
 * without the runtime CPU check in gf_dispatch.cc.
 */

#include "gf/gf_kernels.hh"

#ifdef CHAMELEON_HAVE_AVX2

#include <algorithm>
#include <immintrin.h>

namespace chameleon {
namespace gf {
namespace detail {

namespace {

/** NibbleTables broadcast to both 128-bit halves. */
struct VecTables
{
    __m256i lo;
    __m256i hi;
};

inline VecTables
loadTables(uint8_t c)
{
    const NibbleTables t = makeNibbleTables(c);
    const __m128i lo = _mm_load_si128(
        reinterpret_cast<const __m128i *>(t.lo));
    const __m128i hi = _mm_load_si128(
        reinterpret_cast<const __m128i *>(t.hi));
    return {_mm256_broadcastsi128_si256(lo),
            _mm256_broadcastsi128_si256(hi)};
}

/** c * v for 32 lanes. */
inline __m256i
mulVec(__m256i v, const VecTables &t, __m256i nibble_mask)
{
    const __m256i lo = _mm256_shuffle_epi8(
        t.lo, _mm256_and_si256(v, nibble_mask));
    const __m256i hi = _mm256_shuffle_epi8(
        t.hi,
        _mm256_and_si256(_mm256_srli_epi64(v, 4), nibble_mask));
    return _mm256_xor_si256(lo, hi);
}

inline __m256i
loadu(const uint8_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
storeu(uint8_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

void
avx2MulAdd(uint8_t *dst, const uint8_t *src, std::size_t n, uint8_t c)
{
    const VecTables t = loadTables(c);
    const __m256i mask = _mm256_set1_epi8(0x0F);
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        __m256i d0 = loadu(dst + i);
        __m256i d1 = loadu(dst + i + 32);
        d0 = _mm256_xor_si256(d0, mulVec(loadu(src + i), t, mask));
        d1 = _mm256_xor_si256(d1,
                              mulVec(loadu(src + i + 32), t, mask));
        storeu(dst + i, d0);
        storeu(dst + i + 32, d1);
    }
    for (; i + 32 <= n; i += 32) {
        storeu(dst + i,
               _mm256_xor_si256(loadu(dst + i),
                                mulVec(loadu(src + i), t, mask)));
    }
    if (i < n)
        scalarKernels().mulAdd(dst + i, src + i, n - i, c);
}

void
avx2Mul(uint8_t *dst, const uint8_t *src, std::size_t n, uint8_t c)
{
    const VecTables t = loadTables(c);
    const __m256i mask = _mm256_set1_epi8(0x0F);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32)
        storeu(dst + i, mulVec(loadu(src + i), t, mask));
    if (i < n)
        scalarKernels().mul(dst + i, src + i, n - i, c);
}

void
avx2Add(uint8_t *dst, const uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        storeu(dst + i,
               _mm256_xor_si256(loadu(dst + i), loadu(src + i)));
        storeu(dst + i + 32, _mm256_xor_si256(loadu(dst + i + 32),
                                              loadu(src + i + 32)));
    }
    for (; i + 32 <= n; i += 32)
        storeu(dst + i,
               _mm256_xor_si256(loadu(dst + i), loadu(src + i)));
    if (i < n)
        scalarKernels().add(dst + i, src + i, n - i);
}

/**
 * Folds `cnt` sources into N destinations over every whole 32-byte
 * strip of [0, n); tabs[j * N + o] holds coefficient (o, j). Each
 * source strip is loaded and split into nibbles once, then folded
 * into every destination's accumulator through that destination's
 * table pair (ISA-L's gf_4vect_dot_prod scheme). Returns the number
 * of bytes done.
 */
template <std::size_t N>
std::size_t
foldGroup(uint8_t *const *dsts, const uint8_t *const *srcs,
          const VecTables *tabs, std::size_t cnt, std::size_t n)
{
    const __m256i mask = _mm256_set1_epi8(0x0F);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i acc[N];
        for (std::size_t o = 0; o < N; ++o)
            acc[o] = loadu(dsts[o] + i);
        for (std::size_t j = 0; j < cnt; ++j) {
            const __m256i v = loadu(srcs[j] + i);
            const __m256i lo = _mm256_and_si256(v, mask);
            const __m256i hi =
                _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
            for (std::size_t o = 0; o < N; ++o) {
                const VecTables &t = tabs[j * N + o];
                acc[o] = _mm256_xor_si256(
                    acc[o],
                    _mm256_xor_si256(_mm256_shuffle_epi8(t.lo, lo),
                                     _mm256_shuffle_epi8(t.hi, hi)));
            }
        }
        for (std::size_t o = 0; o < N; ++o)
            storeu(dsts[o] + i, acc[o]);
    }
    return i;
}

void
avx2MulAddMulti(uint8_t *const *dsts, std::size_t ndst,
                const uint8_t *const *srcs, const uint8_t *coeffs,
                std::size_t nsrc, std::size_t n)
{
    // Destinations in groups of four (4 accumulators + nibble
    // operands fit the 16 ymm registers), sources in folds of at most
    // kMaxFused, so a group's tables stay in L1.
    constexpr std::size_t kGroup = 4;
    constexpr std::size_t kMaxFused = 32;
    for (std::size_t g = 0; g < ndst; g += kGroup) {
        const std::size_t nout = std::min(kGroup, ndst - g);
        for (std::size_t base = 0; base < nsrc; base += kMaxFused) {
            const std::size_t cnt = std::min(kMaxFused, nsrc - base);
            VecTables tabs[kMaxFused * kGroup];
            for (std::size_t j = 0; j < cnt; ++j)
                for (std::size_t o = 0; o < nout; ++o)
                    tabs[j * nout + o] =
                        loadTables(coeffs[(g + o) * nsrc + base + j]);
            std::size_t done = 0;
            switch (nout) {
            case 1:
                done = foldGroup<1>(dsts + g, srcs + base, tabs, cnt, n);
                break;
            case 2:
                done = foldGroup<2>(dsts + g, srcs + base, tabs, cnt, n);
                break;
            case 3:
                done = foldGroup<3>(dsts + g, srcs + base, tabs, cnt, n);
                break;
            default:
                done = foldGroup<4>(dsts + g, srcs + base, tabs, cnt, n);
                break;
            }
            for (std::size_t o = 0; done < n && o < nout; ++o) {
                for (std::size_t j = 0; j < cnt; ++j) {
                    const uint8_t c = coeffs[(g + o) * nsrc + base + j];
                    if (c != 0)
                        scalarKernels().mulAdd(dsts[g + o] + done,
                                               srcs[base + j] + done,
                                               n - done, c);
                }
            }
        }
    }
}

} // namespace

const Kernels &
avx2Kernels()
{
    static const Kernels k = {"avx2", avx2MulAdd, avx2Mul, avx2Add,
                              avx2MulAddMulti};
    return k;
}

} // namespace detail
} // namespace gf
} // namespace chameleon

#endif // CHAMELEON_HAVE_AVX2
