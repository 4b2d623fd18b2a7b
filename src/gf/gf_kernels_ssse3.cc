/**
 * @file
 * SSSE3 split-nibble kernels: one pshufb per nibble half turns the
 * 256-entry multiply table into two 16-entry in-register lookups
 * (GF-complete's SPLIT_TABLE(8,4), the scheme Jerasure and every
 * modern EC codec build on). 16 bytes per step, unaligned loads, and
 * scalar tails keep the alignment contract of gf_kernels.hh.
 *
 * This TU is compiled with -mssse3; nothing outside may call into it
 * without the runtime CPU check in gf_dispatch.cc.
 */

#include "gf/gf_kernels.hh"

#ifdef CHAMELEON_HAVE_SSSE3

#include <algorithm>
#include <tmmintrin.h>

namespace chameleon {
namespace gf {
namespace detail {

namespace {

/** Loaded-and-ready form of NibbleTables. */
struct VecTables
{
    __m128i lo;
    __m128i hi;
};

inline VecTables
loadTables(uint8_t c)
{
    const NibbleTables t = makeNibbleTables(c);
    return {_mm_load_si128(reinterpret_cast<const __m128i *>(t.lo)),
            _mm_load_si128(reinterpret_cast<const __m128i *>(t.hi))};
}

/** c * v for 16 lanes: lo[v & 0xF] ^ hi[v >> 4]. */
inline __m128i
mulVec(__m128i v, const VecTables &t, __m128i nibble_mask)
{
    const __m128i lo = _mm_shuffle_epi8(t.lo,
                                        _mm_and_si128(v, nibble_mask));
    const __m128i hi = _mm_shuffle_epi8(
        t.hi, _mm_and_si128(_mm_srli_epi64(v, 4), nibble_mask));
    return _mm_xor_si128(lo, hi);
}

void
ssse3MulAdd(uint8_t *dst, const uint8_t *src, std::size_t n, uint8_t c)
{
    const VecTables t = loadTables(c);
    const __m128i mask = _mm_set1_epi8(0x0F);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i s = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + i));
        __m128i d = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(dst + i));
        d = _mm_xor_si128(d, mulVec(s, t, mask));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i), d);
    }
    if (i < n)
        scalarKernels().mulAdd(dst + i, src + i, n - i, c);
}

void
ssse3Mul(uint8_t *dst, const uint8_t *src, std::size_t n, uint8_t c)
{
    const VecTables t = loadTables(c);
    const __m128i mask = _mm_set1_epi8(0x0F);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i s = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + i));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                         mulVec(s, t, mask));
    }
    if (i < n)
        scalarKernels().mul(dst + i, src + i, n - i, c);
}

void
ssse3Add(uint8_t *dst, const uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i s = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + i));
        const __m128i d = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(dst + i));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                         _mm_xor_si128(d, s));
    }
    if (i < n)
        scalarKernels().add(dst + i, src + i, n - i);
}

/**
 * Folds `cnt` sources into N destinations over every whole 16-byte
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
    const __m128i mask = _mm_set1_epi8(0x0F);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i acc[N];
        for (std::size_t o = 0; o < N; ++o)
            acc[o] = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(dsts[o] + i));
        for (std::size_t j = 0; j < cnt; ++j) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(srcs[j] + i));
            const __m128i lo = _mm_and_si128(v, mask);
            const __m128i hi =
                _mm_and_si128(_mm_srli_epi64(v, 4), mask);
            for (std::size_t o = 0; o < N; ++o) {
                const VecTables &t = tabs[j * N + o];
                acc[o] = _mm_xor_si128(
                    acc[o], _mm_xor_si128(_mm_shuffle_epi8(t.lo, lo),
                                          _mm_shuffle_epi8(t.hi, hi)));
            }
        }
        for (std::size_t o = 0; o < N; ++o)
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dsts[o] + i),
                             acc[o]);
    }
    return i;
}

void
ssse3MulAddMulti(uint8_t *const *dsts, std::size_t ndst,
                 const uint8_t *const *srcs, const uint8_t *coeffs,
                 std::size_t nsrc, std::size_t n)
{
    // Destinations in groups of four (4 accumulators + nibble
    // operands fit the 16 xmm registers), sources in folds of at most
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
ssse3Kernels()
{
    static const Kernels k = {"ssse3", ssse3MulAdd, ssse3Mul,
                              ssse3Add, ssse3MulAddMulti};
    return k;
}

} // namespace detail
} // namespace gf
} // namespace chameleon

#endif // CHAMELEON_HAVE_SSSE3
