/**
 * @file
 * Scalar byte-at-a-time reference kernels. Every other variant must
 * be byte-identical to these; the property suite enforces it.
 */

#include "gf/gf_kernels.hh"

#include <algorithm>

#include "gf/gf_tables.hh"

namespace chameleon {
namespace gf {
namespace detail {

NibbleTables
makeNibbleTables(uint8_t c)
{
    NibbleTables t{};
    if (c == 0)
        return t;
    const unsigned lc = kTables.log[c];
    for (unsigned x = 1; x < 16; ++x) {
        t.lo[x] = kTables.exp[lc + kTables.log[x]];
        t.hi[x] = kTables.exp[lc + kTables.log[x << 4]];
    }
    return t;
}

void
blockedMulAddMulti(const Kernels &k, uint8_t *const *dsts,
                   std::size_t ndst, const uint8_t *const *srcs,
                   const uint8_t *coeffs, std::size_t nsrc,
                   std::size_t n)
{
    // Apply every source to every destination block before advancing,
    // so each source and destination block is fetched from memory
    // once and re-read from cache.
    constexpr std::size_t kBlock = 8192;
    for (std::size_t off = 0; off < n; off += kBlock) {
        const std::size_t len = std::min(kBlock, n - off);
        for (std::size_t o = 0; o < ndst; ++o) {
            for (std::size_t j = 0; j < nsrc; ++j) {
                const uint8_t c = coeffs[o * nsrc + j];
                if (c != 0)
                    k.mulAdd(dsts[o] + off, srcs[j] + off, len, c);
            }
        }
    }
}

namespace {

void
scalarMulAdd(uint8_t *dst, const uint8_t *src, std::size_t n, uint8_t c)
{
    const unsigned lc = kTables.log[c];
    const uint8_t *exp = kTables.exp.data();
    const uint8_t *log = kTables.log.data();
    for (std::size_t i = 0; i < n; ++i) {
        uint8_t v = src[i];
        if (v)
            dst[i] ^= exp[lc + log[v]];
    }
}

void
scalarMul(uint8_t *dst, const uint8_t *src, std::size_t n, uint8_t c)
{
    const unsigned lc = kTables.log[c];
    const uint8_t *exp = kTables.exp.data();
    const uint8_t *log = kTables.log.data();
    for (std::size_t i = 0; i < n; ++i) {
        uint8_t v = src[i];
        dst[i] = v ? exp[lc + log[v]] : 0;
    }
}

void
scalarAdd(uint8_t *dst, const uint8_t *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] ^= src[i];
}

void
scalarMulAddMulti(uint8_t *const *dsts, std::size_t ndst,
                  const uint8_t *const *srcs, const uint8_t *coeffs,
                  std::size_t nsrc, std::size_t n)
{
    blockedMulAddMulti(scalarKernels(), dsts, ndst, srcs, coeffs, nsrc,
                       n);
}

} // namespace

const Kernels &
scalarKernels()
{
    static const Kernels k = {"scalar", scalarMulAdd, scalarMul,
                              scalarAdd, scalarMulAddMulti};
    return k;
}

} // namespace detail
} // namespace gf
} // namespace chameleon
