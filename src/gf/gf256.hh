/**
 * @file
 * GF(2^8) arithmetic, the algebra underlying every erasure code here.
 *
 * The field is constructed from the AES/Rijndael-compatible primitive
 * polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the same polynomial
 * Jerasure/GF-complete default to for w = 8. Single-element
 * multiplication uses log/antilog tables; bulk chunk operations go
 * through the region kernels (mulAddRegion / mulRegion / addRegion /
 * mulAddRegionMatrix), which dispatch once at startup to the fastest
 * compiled-in variant the CPU supports (AVX2 > SSSE3 > 64-bit SWAR >
 * scalar reference; see gf_kernels.hh for the contract and
 * gf_dispatch.cc for the selection policy). All variants are
 * byte-identical; regions need no particular alignment, though
 * 64-byte-aligned buffers (ec::Buffer) avoid cacheline splits.
 */

#ifndef CHAMELEON_GF_GF256_HH_
#define CHAMELEON_GF_GF256_HH_

#include <cstddef>
#include <cstdint>
#include <span>

namespace chameleon {
namespace gf {

/** Field element. */
using Elem = uint8_t;

/** Additive identity. */
inline constexpr Elem kZero = 0;
/** Multiplicative identity. */
inline constexpr Elem kOne = 1;

/** Addition = subtraction = XOR in characteristic 2. */
inline Elem add(Elem a, Elem b) { return a ^ b; }
inline Elem sub(Elem a, Elem b) { return a ^ b; }

/** Field multiplication via log tables. */
Elem mul(Elem a, Elem b);

/** Multiplicative inverse; a must be nonzero. */
Elem inv(Elem a);

/** a / b with b nonzero. */
Elem div(Elem a, Elem b);

/** a raised to integer power e (e >= 0). */
Elem pow(Elem a, unsigned e);

/**
 * dst ^= coeff * src over byte regions (the GF "axpy").
 *
 * This is the single hot loop of encoding, decoding, and the relay
 * nodes' partial-decode combination (Equation (1) of the paper).
 * Regions must be the same length and may not alias unless equal.
 */
void mulAddRegion(std::span<Elem> dst, std::span<const Elem> src,
                  Elem coeff);

/** dst = coeff * src over byte regions. */
void mulRegion(std::span<Elem> dst, std::span<const Elem> src, Elem coeff);

/** dst ^= src over byte regions. */
void addRegion(std::span<Elem> dst, std::span<const Elem> src);

/**
 * Fused matrix axpy over regions: for every output o,
 * dsts[o] ^= sum_j coeffs[o * srcs.size() + j] * srcs[j], with the
 * coefficient matrix row-major, one row per output.
 *
 * Encoding all m parity chunks, decoding every erased chunk of a
 * stripe, and a relay's partial-decode combination (the right-hand
 * side of Equation (1)) are each one call here: every source block
 * is read once for all outputs while the outputs' accumulators stay
 * in registers, instead of one full pass per coefficient. A source
 * whose whole column is zero is never read; zeros inside a column
 * are allowed. Every region must be at least `size` bytes, and no
 * output may overlap a source or another output.
 */
void mulAddRegionMatrix(std::span<Elem *const> dsts, std::size_t size,
                        std::span<const Elem *const> srcs,
                        std::span<const Elem> coeffs);

/**
 * Single-output mulAddRegionMatrix: dst ^= sum_i coeffs[i] * srcs[i]
 * in one cache-blocked pass. Zero coefficients are skipped. Every
 * source must be at least dst.size() bytes and must not overlap dst.
 */
void mulAddRegionMulti(std::span<Elem> dst,
                       std::span<const Elem *const> srcs,
                       std::span<const Elem> coeffs);

/**
 * Name of the region-kernel variant this process dispatches through
 * ("avx2", "ssse3", "swar", or "scalar"); fixed after first use.
 */
const char *kernelName();

} // namespace gf
} // namespace chameleon

#endif // CHAMELEON_GF_GF256_HH_
