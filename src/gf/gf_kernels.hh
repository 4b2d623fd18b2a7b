/**
 * @file
 * Internal GF(2^8) region-kernel interface behind the public gf:: API.
 *
 * Each instruction-set variant (scalar reference, portable 64-bit
 * SWAR, SSSE3, AVX2) implements the same small table of region
 * operations; gf_dispatch.cc picks one at startup based on compiled-in
 * variants and runtime CPU features. The public entry points in
 * gf256.cc handle the coeff == 0 / coeff == 1 special cases and
 * telemetry, then jump through the selected table, so the
 * single-source kernels may assume a general nonzero coefficient.
 * The fused mulAddMulti is the exception: the public entry drops only
 * all-zero columns, so zeros may sit inside a coefficient row. SIMD
 * variants multiply through all-zero nibble tables; the scalar
 * reference must skip them, since its log table has no entry for 0.
 *
 * Alignment contract: kernels accept arbitrarily (mis)aligned
 * pointers and any length, including zero — SIMD variants use
 * unaligned loads and fall back to the scalar reference for tails.
 * 64-byte alignment (ec::Buffer) merely avoids cacheline splits.
 *
 * This header is internal to src/gf, tests, and bench; production
 * callers use gf/gf256.hh.
 */

#ifndef CHAMELEON_GF_GF_KERNELS_HH_
#define CHAMELEON_GF_GF_KERNELS_HH_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chameleon {
namespace gf {
namespace detail {

/**
 * Split-nibble product tables for one coefficient c: lo[x] = c * x
 * and hi[x] = c * (x << 4) for x in 0..15. By linearity
 * c * v = lo[v & 0xF] ^ hi[v >> 4], which is exactly one pshufb pair
 * per 16 bytes — the Jerasure/GF-complete SPLIT_TABLE(8,4) scheme.
 */
struct NibbleTables
{
    alignas(16) uint8_t lo[16];
    alignas(16) uint8_t hi[16];
};

/** Builds the split-nibble tables for `c` from the log/exp tables
 * (all zeros for c == 0). */
NibbleTables makeNibbleTables(uint8_t c);

/**
 * One ISA variant's region kernels. All pointers are unrestricted in
 * alignment; no destination may overlap a source or another
 * destination. Single-source coefficients are nonzero (the
 * dispatcher strips zeros).
 */
struct Kernels
{
    const char *name;
    /** dst[i] ^= c * src[i] for i < n. */
    void (*mulAdd)(uint8_t *dst, const uint8_t *src, std::size_t n,
                   uint8_t c);
    /** dst[i] = c * src[i] for i < n (dst == src allowed). */
    void (*mul)(uint8_t *dst, const uint8_t *src, std::size_t n,
                uint8_t c);
    /** dst[i] ^= src[i] for i < n. */
    void (*add)(uint8_t *dst, const uint8_t *src, std::size_t n);
    /**
     * Fused matrix axpy over regions: for o < ndst and i < n,
     * dsts[o][i] ^= XOR_j coeffs[o * nsrc + j] * srcs[j][i], j < nsrc.
     * The coefficient matrix is row-major, one row per destination,
     * and may hold zeros. Every source block is read once for all
     * destinations of a group before moving on (SIMD variants keep
     * the destinations' accumulators in registers), so neither
     * sources nor destinations are streamed once per coefficient.
     */
    void (*mulAddMulti)(uint8_t *const *dsts, std::size_t ndst,
                        const uint8_t *const *srcs,
                        const uint8_t *coeffs, std::size_t nsrc,
                        std::size_t n);
};

/** Kernel selection order (best last, matching preference). */
enum class Isa {
    kScalar = 0,
    kSwar = 1,
    kSsse3 = 2,
    kAvx2 = 3,
};

/** Human-readable ISA name ("scalar", "swar", "ssse3", "avx2"). */
const char *isaName(Isa isa);

/** Scalar byte-at-a-time log/exp reference (always available). */
const Kernels &scalarKernels();

/** Portable 64-bit SWAR variant (always available). */
const Kernels &swarKernels();

#ifdef CHAMELEON_HAVE_SSSE3
const Kernels &ssse3Kernels();
#endif
#ifdef CHAMELEON_HAVE_AVX2
const Kernels &avx2Kernels();
#endif

/**
 * ISA variants that are compiled in AND usable on this CPU, in
 * preference order (best first). Always contains at least kScalar;
 * exactly {kScalar} when built with -DCHAMELEON_FORCE_SCALAR=ON.
 */
std::vector<Isa> availableIsas();

/** Kernel table for an available ISA (panics otherwise). */
const Kernels &kernels(Isa isa);

/**
 * The ISA the process dispatches through, chosen once on first use:
 * the best available, unless the CHAMELEON_GF_KERNEL environment
 * variable ("scalar", "swar", "ssse3", "avx2") pins an available one.
 */
Isa activeIsa();

/** Kernel table the public gf:: region ops jump through. */
const Kernels &activeKernels();

/**
 * Generic cache-blocked mulAddMulti built on a single-source mulAdd;
 * used by the scalar and SWAR variants. Skips zero coefficients.
 */
void blockedMulAddMulti(const Kernels &k, uint8_t *const *dsts,
                        std::size_t ndst, const uint8_t *const *srcs,
                        const uint8_t *coeffs, std::size_t nsrc,
                        std::size_t n);

} // namespace detail
} // namespace gf
} // namespace chameleon

#endif // CHAMELEON_GF_GF_KERNELS_HH_
