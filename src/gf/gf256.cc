#include "gf/gf256.hh"

#include <algorithm>
#include <array>

#include "gf/gf_kernels.hh"
#include "gf/gf_tables.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace gf {

namespace {

using detail::kTables;

/** Bytes pushed through each region entry point, for codec-throughput
 * accounting in exported metric snapshots. Handles resolve once, in
 * the process-wide registry: they outlive any per-run registry and
 * are shared by every concurrent run (Counter is atomic). */
struct RegionCounters
{
    telemetry::Counter &mulAdd;
    telemetry::Counter &mul;
    telemetry::Counter &add;
    telemetry::Counter &multi;

    RegionCounters()
        : mulAdd(telemetry::processMetrics()
                     .counter("gf.bytes.muladd")),
          mul(telemetry::processMetrics().counter("gf.bytes.mul")),
          add(telemetry::processMetrics().counter("gf.bytes.add")),
          multi(telemetry::processMetrics()
                    .counter("gf.bytes.muladd_multi"))
    {
    }
};

RegionCounters &
counters()
{
    static RegionCounters c;
    return c;
}

} // namespace

Elem
mul(Elem a, Elem b)
{
    if (a == 0 || b == 0)
        return 0;
    return kTables.exp[kTables.log[a] + kTables.log[b]];
}

Elem
inv(Elem a)
{
    CHAMELEON_ASSERT(a != 0, "inverse of zero");
    return kTables.exp[255 - kTables.log[a]];
}

Elem
div(Elem a, Elem b)
{
    CHAMELEON_ASSERT(b != 0, "division by zero");
    if (a == 0)
        return 0;
    unsigned diff = 255u + kTables.log[a] - kTables.log[b];
    return kTables.exp[diff % 255];
}

Elem
pow(Elem a, unsigned e)
{
    if (e == 0)
        return kOne;
    if (a == 0)
        return kZero;
    unsigned le = (static_cast<unsigned>(kTables.log[a]) * e) % 255;
    return kTables.exp[le];
}

void
mulAddRegion(std::span<Elem> dst, std::span<const Elem> src, Elem coeff)
{
    CHAMELEON_ASSERT(dst.size() == src.size(),
                     "region size mismatch: ", dst.size(), " vs ",
                     src.size());
    if (coeff == 0 || dst.empty())
        return;
    counters().mulAdd.add(static_cast<int64_t>(dst.size()));
    if (coeff == 1) {
        detail::activeKernels().add(dst.data(), src.data(),
                                    dst.size());
        return;
    }
    detail::activeKernels().mulAdd(dst.data(), src.data(), dst.size(),
                                   coeff);
}

void
mulRegion(std::span<Elem> dst, std::span<const Elem> src, Elem coeff)
{
    CHAMELEON_ASSERT(dst.size() == src.size(), "region size mismatch");
    if (coeff == 0) {
        for (auto &b : dst)
            b = 0;
        return;
    }
    if (dst.empty())
        return;
    if (coeff == 1) {
        if (dst.data() != src.data())
            std::copy(src.begin(), src.end(), dst.begin());
        return;
    }
    counters().mul.add(static_cast<int64_t>(dst.size()));
    detail::activeKernels().mul(dst.data(), src.data(), dst.size(),
                                coeff);
}

void
addRegion(std::span<Elem> dst, std::span<const Elem> src)
{
    CHAMELEON_ASSERT(dst.size() == src.size(), "region size mismatch");
    if (dst.empty())
        return;
    counters().add.add(static_cast<int64_t>(dst.size()));
    detail::activeKernels().add(dst.data(), src.data(), dst.size());
}

void
mulAddRegionMatrix(std::span<Elem *const> dsts, std::size_t size,
                   std::span<const Elem *const> srcs,
                   std::span<const Elem> coeffs)
{
    const std::size_t ndst = dsts.size();
    const std::size_t nsrc = srcs.size();
    CHAMELEON_ASSERT(coeffs.size() == ndst * nsrc,
                     "coefficient matrix has ", coeffs.size(),
                     " entries, want ", ndst, " x ", nsrc);
    // Small fixed batches keep the compacted matrix below on the
    // stack: at most kMaxDst rows per kernel call (more rows split by
    // rows, which the row-major layout makes contiguous) and kBatch
    // columns (a longer source list goes in further batches).
    constexpr std::size_t kMaxDst = 8;
    constexpr std::size_t kBatch = 64;
    if (ndst > kMaxDst) {
        for (std::size_t o = 0; o < ndst; o += kMaxDst) {
            const std::size_t rows = std::min(kMaxDst, ndst - o);
            mulAddRegionMatrix(dsts.subspan(o, rows), size, srcs,
                               coeffs.subspan(o * nsrc, rows * nsrc));
        }
        return;
    }
    if (size == 0 || ndst == 0)
        return;
    for (const Elem *d : dsts)
        CHAMELEON_ASSERT(d != nullptr, "null destination region");

    // Drop only sources whose whole column is zero: zeros inside a
    // column stay in the matrix, and the kernels handle them.
    std::array<std::size_t, kBatch> cols;
    std::size_t cnt = 0;
    auto flush = [&] {
        std::array<const Elem *, kBatch> fsrcs;
        std::array<Elem, kBatch * kMaxDst> fcoeffs;
        int64_t nonzero = 0;
        for (std::size_t b = 0; b < cnt; ++b) {
            fsrcs[b] = srcs[cols[b]];
            for (std::size_t o = 0; o < ndst; ++o) {
                const Elem c = coeffs[o * nsrc + cols[b]];
                fcoeffs[o * cnt + b] = c;
                nonzero += c != 0;
            }
        }
        detail::activeKernels().mulAddMulti(dsts.data(), ndst,
                                            fsrcs.data(), fcoeffs.data(),
                                            cnt, size);
        counters().multi.add(nonzero * static_cast<int64_t>(size));
        cnt = 0;
    };
    for (std::size_t j = 0; j < nsrc; ++j) {
        bool live = false;
        for (std::size_t o = 0; o < ndst; ++o)
            live = live || coeffs[o * nsrc + j] != 0;
        if (!live)
            continue;
        CHAMELEON_ASSERT(srcs[j] != nullptr, "null source region");
        cols[cnt] = j;
        if (++cnt == kBatch)
            flush();
    }
    if (cnt > 0)
        flush();
}

void
mulAddRegionMulti(std::span<Elem> dst, std::span<const Elem *const> srcs,
                  std::span<const Elem> coeffs)
{
    CHAMELEON_ASSERT(srcs.size() == coeffs.size(),
                     "source/coefficient count mismatch: ",
                     srcs.size(), " vs ", coeffs.size());
    Elem *const dsts[1] = {dst.data()};
    mulAddRegionMatrix(dsts, dst.size(), srcs, coeffs);
}

const char *
kernelName()
{
    return detail::activeKernels().name;
}

} // namespace gf
} // namespace chameleon
