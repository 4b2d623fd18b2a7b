#include "ec/butterfly_code.hh"

#include <algorithm>
#include <array>

#include "gf/gf256.hh"
#include "util/logging.hh"

namespace chameleon {
namespace ec {

namespace {

/** Bitmask over the data symbols (a0, a1, b0, b1) = bits (0,1,2,3). */
using RowMask = unsigned;

/** rowMask[node][row]: which data symbols XOR into that stored row. */
constexpr RowMask kRowMask[4][2] = {
    {0b0001, 0b0010}, // node 0: a0, a1
    {0b0100, 0b1000}, // node 1: b0, b1
    {0b0101, 0b1010}, // node 2: a0^b0, a1^b1
    {0b1001, 0b1110}, // node 3: a0^b1, a1^b0^b1
};

/** One half-chunk read used during repair. */
struct RowRead
{
    ChunkIndex helper;
    int row;
};

/** Repair recipe: reads, then per output row the reads to XOR. */
struct RepairRecipe
{
    std::vector<RowRead> reads;
    std::vector<std::vector<int>> outputs; // indices into reads
};

/** Verified minimal repair recipes (see header derivation). */
const RepairRecipe &
recipeFor(ChunkIndex failed)
{
    static const std::array<RepairRecipe, 4> recipes = {{
        // node 0: a0 = q0 ^ b1, a1 = p1 ^ b1
        {{{1, 1}, {2, 1}, {3, 0}}, {{2, 0}, {1, 0}}},
        // node 1: b0 = p0 ^ a0, b1 = q0 ^ a0
        {{{0, 0}, {2, 0}, {3, 0}}, {{1, 0}, {2, 0}}},
        // node 2: p0 = a0 ^ b0, p1 = q1 ^ b0
        {{{0, 0}, {1, 0}, {3, 1}}, {{0, 1}, {2, 1}}},
        // node 3: q0 = a0 ^ p1 ^ a1, q1 = b0 ^ p1
        {{{0, 0}, {0, 1}, {1, 0}, {2, 1}}, {{0, 3, 1}, {2, 3}}},
    }};
    CHAMELEON_ASSERT(failed >= 0 && failed < 4, "bad failed index");
    return recipes[static_cast<std::size_t>(failed)];
}

std::span<const uint8_t>
rowOf(const Buffer &chunk, int row)
{
    const std::size_t half = chunk.size() / 2;
    return std::span<const uint8_t>(chunk).subspan(
        static_cast<std::size_t>(row) * half, half);
}

std::span<uint8_t>
rowOf(Buffer &chunk, int row)
{
    const std::size_t half = chunk.size() / 2;
    return std::span<uint8_t>(chunk).subspan(
        static_cast<std::size_t>(row) * half, half);
}

/**
 * Writes dsts[r] ^= XOR of the data symbols in masks[r], for every
 * listed stored row, in one fused pass that reads each of the four
 * half-chunk symbols once.
 */
void
xorRows(const std::array<const gf::Elem *, 4> &sym, std::size_t half,
        std::span<gf::Elem *const> dsts, std::span<const RowMask> masks)
{
    std::array<gf::Elem, 16> coeffs{};
    for (std::size_t r = 0; r < masks.size(); ++r)
        for (std::size_t s = 0; s < 4; ++s)
            coeffs[r * 4 + s] = (masks[r] >> s) & 1u;
    gf::mulAddRegionMatrix(dsts, half, sym,
                           std::span<const gf::Elem>(coeffs.data(),
                                                     masks.size() * 4));
}

} // namespace

std::vector<Buffer>
ButterflyCode::encode(const std::vector<Buffer> &data) const
{
    CHAMELEON_ASSERT(data.size() == 2, "Butterfly(4,2) takes 2 chunks");
    const std::size_t size = data[0].size();
    CHAMELEON_ASSERT(data[1].size() == size, "chunk sizes differ");
    CHAMELEON_ASSERT(size % 2 == 0,
                     "Butterfly needs an even chunk size, got ", size);

    std::vector<Buffer> parity(2, Buffer(size, 0));
    // Symbols: a0,a1 from data[0]; b0,b1 from data[1].
    const std::array<const gf::Elem *, 4> sym = {
        rowOf(data[0], 0).data(), rowOf(data[0], 1).data(),
        rowOf(data[1], 0).data(), rowOf(data[1], 1).data()};
    std::array<gf::Elem *, 4> dsts;
    std::array<RowMask, 4> masks;
    for (int node = 2; node < 4; ++node) {
        for (int row = 0; row < 2; ++row) {
            const auto r = static_cast<std::size_t>((node - 2) * 2 + row);
            dsts[r] = rowOf(parity[static_cast<std::size_t>(node - 2)],
                            row).data();
            masks[r] = kRowMask[node][row];
        }
    }
    xorRows(sym, size / 2, dsts, masks);
    return parity;
}

RepairSpec
ButterflyCode::makeRepairSpec(ChunkIndex failed,
                              std::span<const ChunkIndex> available,
                              Rng &rng) const
{
    (void)rng; // the recipe is fixed; no helper choice exists
    for (ChunkIndex node = 0; node < 4; ++node) {
        if (node == failed)
            continue;
        CHAMELEON_ASSERT(
            std::find(available.begin(), available.end(), node) !=
                available.end(),
            name(), " single-chunk repair needs all three survivors");
    }
    const RepairRecipe &recipe = recipeFor(failed);
    RepairSpec spec;
    spec.failed = failed;
    spec.combinable = false;
    // Aggregate per-helper fractions (node 0 contributes both rows
    // when repairing Q).
    for (const RowRead &rr : recipe.reads) {
        auto it = std::find_if(spec.reads.begin(), spec.reads.end(),
                               [&](const RepairRead &r) {
                                   return r.helper == rr.helper;
                               });
        if (it == spec.reads.end()) {
            spec.reads.push_back(RepairRead{rr.helper, 0.5, gf::kOne});
        } else {
            it->fraction += 0.5;
        }
    }
    return spec;
}

HelperPool
ButterflyCode::helperPool(ChunkIndex failed,
                          std::span<const ChunkIndex> available) const
{
    HelperPool pool;
    pool.combinable = false;
    pool.fixedSet = true;
    for (ChunkIndex node = 0; node < 4; ++node) {
        if (node == failed)
            continue;
        CHAMELEON_ASSERT(
            std::find(available.begin(), available.end(), node) !=
                available.end(),
            name(), " repair needs all three survivors");
        pool.candidates.push_back(node);
    }
    pool.required = 3;
    return pool;
}

std::optional<RepairSpec>
ButterflyCode::specFor(ChunkIndex failed,
                       std::span<const ChunkIndex> helpers) const
{
    // The recipe is fixed: only the full survivor set works.
    std::vector<ChunkIndex> want;
    for (ChunkIndex node = 0; node < 4; ++node)
        if (node != failed)
            want.push_back(node);
    if (helpers.size() != want.size())
        return std::nullopt;
    for (ChunkIndex w : want)
        if (std::find(helpers.begin(), helpers.end(), w) == helpers.end())
            return std::nullopt;
    Rng dummy(0);
    return makeRepairSpec(failed, want, dummy);
}

Buffer
ButterflyCode::repairCompute(const RepairSpec &spec,
                             const std::vector<Buffer> &helper_data) const
{
    CHAMELEON_ASSERT(helper_data.size() == spec.reads.size(),
                     "helper data count mismatch");
    const RepairRecipe &recipe = recipeFor(spec.failed);
    const std::size_t size = helper_data[0].size();
    for (const auto &h : helper_data)
        CHAMELEON_ASSERT(h.size() == size, "helper chunk sizes differ: ",
                         h.size(), " vs ", size);
    CHAMELEON_ASSERT(size % 2 == 0, "odd chunk size");

    // Map helper chunk index -> position in helper_data.
    auto chunk_of = [&](ChunkIndex helper) -> const Buffer & {
        for (std::size_t i = 0; i < spec.reads.size(); ++i)
            if (spec.reads[i].helper == helper)
                return helper_data[i];
        CHAMELEON_PANIC("helper ", helper, " not in spec");
    };

    Buffer out(size, 0);
    for (int row = 0; row < 2; ++row) {
        auto dst = rowOf(out, row);
        std::array<const gf::Elem *, 4> srcs;
        std::array<gf::Elem, 4> coeffs;
        std::size_t cnt = 0;
        for (int ri : recipe.outputs[static_cast<std::size_t>(row)]) {
            const RowRead &rr =
                recipe.reads[static_cast<std::size_t>(ri)];
            srcs[cnt] = rowOf(chunk_of(rr.helper), rr.row).data();
            coeffs[cnt] = gf::kOne;
            ++cnt;
        }
        gf::mulAddRegionMulti(
            dst, std::span<const gf::Elem *const>(srcs.data(), cnt),
            std::span<const gf::Elem>(coeffs.data(), cnt));
    }
    return out;
}

bool
ButterflyCode::canRepair(std::span<const ChunkIndex> erased) const
{
    for (auto e : erased)
        CHAMELEON_ASSERT(e >= 0 && e < 4, "bad erased index ", e);
    return erased.size() <= 2;
}

std::optional<std::vector<ChunkIndex>>
ButterflyCode::repairIndices(std::span<const ChunkIndex> erased) const
{
    if (!canRepair(erased))
        return std::nullopt;
    // Both repair recipes and two-loss decode read every survivor.
    std::array<bool, 4> gone = {false, false, false, false};
    for (auto e : erased)
        gone[static_cast<std::size_t>(e)] = true;
    std::vector<ChunkIndex> helpers;
    for (ChunkIndex i = 0; i < 4; ++i)
        if (!gone[static_cast<std::size_t>(i)])
            helpers.push_back(i);
    if (erased.empty())
        helpers.clear();
    return helpers;
}

bool
ButterflyCode::decode(std::vector<Buffer> &chunks) const
{
    CHAMELEON_ASSERT(chunks.size() == 4, "Butterfly stripe has 4 chunks");
    std::size_t size = 0;
    int present = 0;
    for (const auto &c : chunks) {
        if (c.empty())
            continue;
        if (present++ == 0)
            size = c.size();
        CHAMELEON_ASSERT(c.size() == size, "chunk sizes differ: ",
                         c.size(), " vs ", size);
    }
    if (present == 4)
        return true;
    if (present < 2)
        return false;
    CHAMELEON_ASSERT(size % 2 == 0, "odd chunk size");
    const std::size_t half = size / 2;

    // Gauss-Jordan over GF(2): equations (mask, row bytes) from the
    // surviving rows; unknowns are the four data symbols.
    std::array<Buffer, 4> sym;
    std::vector<std::pair<RowMask, Buffer>> sys;
    for (int node = 0; node < 4; ++node) {
        const auto &c = chunks[static_cast<std::size_t>(node)];
        if (c.empty())
            continue;
        for (int row = 0; row < 2; ++row) {
            auto r = rowOf(c, row);
            sys.emplace_back(kRowMask[node][row],
                             Buffer(r.begin(), r.end()));
        }
    }
    std::size_t rank = 0;
    for (int s = 0; s < 4 && rank < sys.size(); ++s) {
        std::size_t piv = rank;
        while (piv < sys.size() && !(sys[piv].first & (1u << s)))
            ++piv;
        if (piv == sys.size())
            continue;
        std::swap(sys[rank], sys[piv]);
        for (std::size_t e = 0; e < sys.size(); ++e) {
            if (e != rank && (sys[e].first & (1u << s))) {
                sys[e].first ^= sys[rank].first;
                gf::addRegion(std::span<uint8_t>(sys[e].second),
                              std::span<const uint8_t>(sys[rank].second));
            }
        }
        ++rank;
    }
    for (int s = 0; s < 4; ++s) {
        auto it = std::find_if(sys.begin(), sys.end(),
                               [&](const auto &e) {
                                   return e.first == (1u << s);
                               });
        if (it == sys.end())
            return false; // underdetermined pattern
        sym[static_cast<std::size_t>(s)] = it->second;
        CHAMELEON_ASSERT(sym[static_cast<std::size_t>(s)].size() == half,
                         "solved symbol has wrong size");
    }

    // Every lost stored row is one output of a single fused pass
    // over the four solved symbols.
    const std::array<const gf::Elem *, 4> sym_ptrs = {
        sym[0].data(), sym[1].data(), sym[2].data(), sym[3].data()};
    std::array<gf::Elem *, 4> dsts;
    std::array<RowMask, 4> masks;
    std::size_t rows = 0;
    for (int node = 0; node < 4; ++node) {
        auto &c = chunks[static_cast<std::size_t>(node)];
        if (!c.empty())
            continue;
        c.assign(size, 0);
        for (int row = 0; row < 2; ++row) {
            dsts[rows] = rowOf(c, row).data();
            masks[rows++] = kRowMask[node][row];
        }
    }
    xorRows(sym_ptrs, half,
            std::span<gf::Elem *const>(dsts.data(), rows),
            std::span<const RowMask>(masks.data(), rows));
    return true;
}

} // namespace ec
} // namespace chameleon
