/**
 * @file
 * Portable 64-bit SWAR kernels: eight field elements per register,
 * multiplied with the shift-and-conditional-reduce ladder (the
 * branch-free carryless multiply classic). No intrinsics, so this is
 * the fallback on any architecture; it still beats the byte loop by
 * avoiding per-byte branches and table loads.
 */

#include "gf/gf_kernels.hh"

#include <cstring>

#include "gf/gf_tables.hh"

namespace chameleon {
namespace gf {
namespace detail {

namespace {

constexpr uint64_t kHighBits = 0x8080808080808080ull;
constexpr uint64_t kLowBits = 0x7F7F7F7F7F7F7F7Full;

/** All-ones/all-zero lane masks, one per bit of the coefficient, so
 * the multiply ladder is branch-free. */
struct BitMasks
{
    uint64_t m[8];
};

inline BitMasks
makeBitMasks(uint8_t c)
{
    BitMasks b;
    for (int bit = 0; bit < 8; ++bit)
        b.m[bit] = (c & (1u << bit)) ? ~0ull : 0ull;
    return b;
}

/**
 * Multiplies all eight byte lanes of `v` by the coefficient encoded
 * in `b`: accumulate the lanes for each set bit, doubling v (times-x
 * modulo 0x11D, per lane) between bits. `(hi >> 7) * 0x1D` fans the
 * reduction constant into exactly the lanes whose top bit
 * overflowed.
 */
inline uint64_t
mulLanes(uint64_t v, const BitMasks &b)
{
    uint64_t r = 0;
    for (int bit = 0; bit < 8; ++bit) {
        r ^= v & b.m[bit];
        const uint64_t hi = v & kHighBits;
        v = ((v & kLowBits) << 1) ^ ((hi >> 7) * 0x1D);
    }
    return r;
}

inline uint64_t
loadWord(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline void
storeWord(uint8_t *p, uint64_t v)
{
    std::memcpy(p, &v, sizeof(v));
}

void
swarMulAdd(uint8_t *dst, const uint8_t *src, std::size_t n, uint8_t c)
{
    const BitMasks b = makeBitMasks(c);
    std::size_t i = 0;
    // Four words per iteration for instruction-level parallelism:
    // the four mul ladders are independent dependency chains.
    for (; i + 32 <= n; i += 32) {
        uint64_t r0 = mulLanes(loadWord(src + i), b);
        uint64_t r1 = mulLanes(loadWord(src + i + 8), b);
        uint64_t r2 = mulLanes(loadWord(src + i + 16), b);
        uint64_t r3 = mulLanes(loadWord(src + i + 24), b);
        storeWord(dst + i, loadWord(dst + i) ^ r0);
        storeWord(dst + i + 8, loadWord(dst + i + 8) ^ r1);
        storeWord(dst + i + 16, loadWord(dst + i + 16) ^ r2);
        storeWord(dst + i + 24, loadWord(dst + i + 24) ^ r3);
    }
    for (; i + 8 <= n; i += 8)
        storeWord(dst + i, loadWord(dst + i) ^
                               mulLanes(loadWord(src + i), b));
    if (i < n)
        scalarKernels().mulAdd(dst + i, src + i, n - i, c);
}

void
swarMul(uint8_t *dst, const uint8_t *src, std::size_t n, uint8_t c)
{
    const BitMasks b = makeBitMasks(c);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeWord(dst + i, mulLanes(loadWord(src + i), b));
    if (i < n)
        scalarKernels().mul(dst + i, src + i, n - i, c);
}

void
swarAdd(uint8_t *dst, const uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeWord(dst + i, loadWord(dst + i) ^ loadWord(src + i));
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

void
swarMulAddMulti(uint8_t *const *dsts, std::size_t ndst,
                const uint8_t *const *srcs, const uint8_t *coeffs,
                std::size_t nsrc, std::size_t n)
{
    blockedMulAddMulti(swarKernels(), dsts, ndst, srcs, coeffs, nsrc,
                       n);
}

} // namespace

const Kernels &
swarKernels()
{
    static const Kernels k = {"swar", swarMulAdd, swarMul, swarAdd,
                              swarMulAddMulti};
    return k;
}

} // namespace detail
} // namespace gf
} // namespace chameleon
