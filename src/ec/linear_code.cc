#include "ec/linear_code.hh"

#include <algorithm>

#include "util/logging.hh"

namespace chameleon {
namespace ec {

LinearCode::LinearCode(int k, int m, gf::Matrix gen)
    : k_(k), m_(m), gen_(std::move(gen))
{
    CHAMELEON_ASSERT(k >= 1 && m >= 1, "k and m must be positive");
    CHAMELEON_ASSERT(gen_.rows() == static_cast<std::size_t>(k + m) &&
                     gen_.cols() == static_cast<std::size_t>(k),
                     "generator must be (k+m) x k");
    // Systematic check: identity on the first k rows.
    for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
            gf::Elem want = (i == j) ? gf::kOne : gf::kZero;
            CHAMELEON_ASSERT(gen_.at(i, j) == want,
                             "generator is not systematic at (", i,
                             ",", j, ")");
        }
    }
}

std::vector<Buffer>
LinearCode::encode(const std::vector<Buffer> &data) const
{
    CHAMELEON_ASSERT(data.size() == static_cast<std::size_t>(k_),
                     "encode expects ", k_, " data chunks, got ",
                     data.size());
    const std::size_t size = data[0].size();
    for (const auto &d : data)
        CHAMELEON_ASSERT(d.size() == size, "chunk sizes differ");

    // One fused kernel call for all m parity rows of G, so each data
    // chunk is read once for the whole stripe.
    std::vector<const gf::Elem *> srcs(static_cast<std::size_t>(k_));
    for (int j = 0; j < k_; ++j)
        srcs[static_cast<std::size_t>(j)] =
            data[static_cast<std::size_t>(j)].data();
    std::vector<gf::Elem> coeffs;
    coeffs.reserve(static_cast<std::size_t>(m_ * k_));
    for (int p = 0; p < m_; ++p)
        for (int j = 0; j < k_; ++j)
            coeffs.push_back(gen_.at(k_ + p, j));
    std::vector<Buffer> parity;
    std::vector<gf::Elem *> dsts;
    parity.reserve(static_cast<std::size_t>(m_));
    for (int p = 0; p < m_; ++p)
        dsts.push_back(parity.emplace_back(size).data());
    gf::mulAddRegionMatrix(dsts, size, srcs, coeffs);
    return parity;
}

std::optional<std::vector<gf::Elem>>
LinearCode::repairCoeffs(ChunkIndex failed,
                         std::span<const ChunkIndex> helpers) const
{
    const auto h = helpers.size();
    CHAMELEON_ASSERT(failed >= 0 && failed < n(), "bad failed index");
    for (auto idx : helpers) {
        CHAMELEON_ASSERT(idx >= 0 && idx < n(), "bad helper index");
        CHAMELEON_ASSERT(idx != failed, "helper equals failed chunk");
    }

    // Solve M x = b where column i of M is G[helpers[i]] (length k)
    // and b = G[failed]. Gaussian elimination on the k x (h+1)
    // augmented matrix; free variables default to zero.
    const std::size_t rows = static_cast<std::size_t>(k_);
    std::vector<std::vector<gf::Elem>> aug(
        rows, std::vector<gf::Elem>(h + 1, 0));
    for (std::size_t c = 0; c < rows; ++c) {
        for (std::size_t i = 0; i < h; ++i)
            aug[c][i] = gen_.at(static_cast<std::size_t>(helpers[i]), c);
        aug[c][h] = gen_.at(static_cast<std::size_t>(failed), c);
    }

    std::vector<std::size_t> pivot_col_of_row(rows, h);
    std::size_t rank = 0;
    for (std::size_t col = 0; col < h && rank < rows; ++col) {
        std::size_t piv = rank;
        while (piv < rows && aug[piv][col] == 0)
            ++piv;
        if (piv == rows)
            continue;
        std::swap(aug[rank], aug[piv]);
        gf::Elem piv_inv = gf::inv(aug[rank][col]);
        for (std::size_t j = col; j <= h; ++j)
            aug[rank][j] = gf::mul(aug[rank][j], piv_inv);
        for (std::size_t r = 0; r < rows; ++r) {
            if (r == rank || aug[r][col] == 0)
                continue;
            gf::Elem f = aug[r][col];
            for (std::size_t j = col; j <= h; ++j)
                aug[r][j] = gf::add(aug[r][j],
                                    gf::mul(f, aug[rank][j]));
        }
        pivot_col_of_row[rank] = col;
        ++rank;
    }
    // Inconsistency check: a zero row with nonzero RHS.
    for (std::size_t r = rank; r < rows; ++r) {
        bool all_zero = true;
        for (std::size_t j = 0; j < h; ++j) {
            if (aug[r][j] != 0) {
                all_zero = false;
                break;
            }
        }
        if (all_zero && aug[r][h] != 0)
            return std::nullopt;
    }

    std::vector<gf::Elem> x(h, 0);
    for (std::size_t r = 0; r < rank; ++r)
        x[pivot_col_of_row[r]] = aug[r][h];
    return x;
}

bool
LinearCode::canRepairWith(ChunkIndex failed,
                          std::span<const ChunkIndex> helpers) const
{
    return repairCoeffs(failed, helpers).has_value();
}

RepairSpec
LinearCode::specFromHelpers(ChunkIndex failed,
                            std::span<const ChunkIndex> helpers) const
{
    auto coeffs = repairCoeffs(failed, helpers);
    CHAMELEON_ASSERT(coeffs.has_value(),
                     "helpers cannot repair chunk ", failed);
    RepairSpec spec;
    spec.failed = failed;
    spec.combinable = true;
    spec.reads.reserve(helpers.size());
    for (std::size_t i = 0; i < helpers.size(); ++i) {
        // A zero coefficient means this helper contributes nothing;
        // dropping it keeps repair traffic minimal.
        if ((*coeffs)[i] == 0)
            continue;
        spec.reads.push_back(RepairRead{helpers[i], 1.0, (*coeffs)[i]});
    }
    return spec;
}

std::optional<RepairSpec>
LinearCode::specFor(ChunkIndex failed,
                    std::span<const ChunkIndex> helpers) const
{
    if (!repairCoeffs(failed, helpers))
        return std::nullopt;
    return specFromHelpers(failed, helpers);
}

Buffer
LinearCode::repairCompute(const RepairSpec &spec,
                          const std::vector<Buffer> &helper_data) const
{
    CHAMELEON_ASSERT(helper_data.size() == spec.reads.size(),
                     "helper data count mismatch");
    CHAMELEON_ASSERT(!helper_data.empty(), "no helper data");
    const std::size_t size = helper_data[0].size();
    std::vector<const gf::Elem *> srcs(helper_data.size());
    std::vector<gf::Elem> coeffs(helper_data.size());
    for (std::size_t i = 0; i < helper_data.size(); ++i) {
        CHAMELEON_ASSERT(helper_data[i].size() == size,
                         "helper chunk sizes differ");
        srcs[i] = helper_data[i].data();
        coeffs[i] = spec.reads[i].coeff;
    }
    Buffer out(size, 0);
    gf::mulAddRegionMulti(std::span<uint8_t>(out), srcs, coeffs);
    return out;
}

namespace {

/** Ascending survivor list: [0, n) minus the erased set. */
std::vector<ChunkIndex>
survivorsOf(int n, std::span<const ChunkIndex> erased)
{
    std::vector<bool> gone(static_cast<std::size_t>(n), false);
    for (auto e : erased)
        gone[static_cast<std::size_t>(e)] = true;
    std::vector<ChunkIndex> out;
    out.reserve(static_cast<std::size_t>(n) - erased.size());
    for (ChunkIndex i = 0; i < n; ++i)
        if (!gone[static_cast<std::size_t>(i)])
            out.push_back(i);
    return out;
}

} // namespace

bool
LinearCode::canRepair(std::span<const ChunkIndex> erased) const
{
    if (erased.empty())
        return true;
    for (auto e : erased)
        CHAMELEON_ASSERT(e >= 0 && e < n(), "bad erased index ", e);
    auto survivors = survivorsOf(n(), erased);
    if (survivors.size() < static_cast<std::size_t>(k_))
        return false;
    for (auto e : erased)
        if (!repairCoeffs(e, survivors))
            return false;
    return true;
}

std::optional<std::vector<ChunkIndex>>
LinearCode::repairIndices(std::span<const ChunkIndex> erased) const
{
    if (erased.empty())
        return std::vector<ChunkIndex>{};
    for (auto e : erased)
        CHAMELEON_ASSERT(e >= 0 && e < n(), "bad erased index ", e);
    auto survivors = survivorsOf(n(), erased);

    // Seed set: helpers that actually carry a nonzero coefficient in
    // the deterministic (ascending-survivor) solve of each erased row.
    std::vector<bool> used(static_cast<std::size_t>(n()), false);
    for (auto e : erased) {
        auto coeffs = repairCoeffs(e, survivors);
        if (!coeffs)
            return std::nullopt;
        for (std::size_t i = 0; i < survivors.size(); ++i)
            if ((*coeffs)[i] != 0)
                used[static_cast<std::size_t>(survivors[i])] = true;
    }
    std::vector<ChunkIndex> helpers;
    for (ChunkIndex i = 0; i < n(); ++i)
        if (used[static_cast<std::size_t>(i)])
            helpers.push_back(i);

    // Prune pass: drop any helper whose removal keeps every erased
    // chunk solvable. Lowest index first keeps the result
    // deterministic; the surviving set is irredundant.
    for (std::size_t i = 0; i < helpers.size();) {
        std::vector<ChunkIndex> without;
        without.reserve(helpers.size() - 1);
        for (std::size_t j = 0; j < helpers.size(); ++j)
            if (j != i)
                without.push_back(helpers[j]);
        bool droppable = true;
        for (auto e : erased) {
            if (!repairCoeffs(e, without)) {
                droppable = false;
                break;
            }
        }
        if (droppable)
            helpers = std::move(without);
        else
            ++i;
    }
    return helpers;
}

std::optional<std::vector<ChunkIndex>>
LinearCode::minimalHelpersFor(
    ChunkIndex failed, std::span<const ChunkIndex> candidates) const
{
    std::vector<ChunkIndex> sorted(candidates.begin(),
                                   candidates.end());
    std::sort(sorted.begin(), sorted.end());
    auto coeffs = repairCoeffs(failed, sorted);
    if (!coeffs)
        return std::nullopt;
    std::vector<ChunkIndex> helpers;
    for (std::size_t i = 0; i < sorted.size(); ++i)
        if ((*coeffs)[i] != 0)
            helpers.push_back(sorted[i]);
    for (std::size_t i = 0; i < helpers.size();) {
        std::vector<ChunkIndex> without;
        without.reserve(helpers.size() - 1);
        for (std::size_t j = 0; j < helpers.size(); ++j)
            if (j != i)
                without.push_back(helpers[j]);
        if (repairCoeffs(failed, without))
            helpers = std::move(without);
        else
            ++i;
    }
    return helpers;
}

int
LinearCode::guaranteedRepairableCount() const
{
    // Level f is guaranteed iff every size-f pattern repairs. Erasing
    // more than m chunks leaves fewer than k survivor rows, so m is a
    // hard cap and the enumeration is over at most C(n, m) patterns.
    for (int f = 1; f <= m_; ++f) {
        std::vector<ChunkIndex> pattern(static_cast<std::size_t>(f));
        // Lexicographic enumeration of all f-subsets of [0, n).
        for (int i = 0; i < f; ++i)
            pattern[static_cast<std::size_t>(i)] = i;
        while (true) {
            if (!canRepair(pattern))
                return f - 1;
            int i = f - 1;
            while (i >= 0 &&
                   pattern[static_cast<std::size_t>(i)] ==
                       n() - f + i)
                --i;
            if (i < 0)
                break;
            ++pattern[static_cast<std::size_t>(i)];
            for (int j = i + 1; j < f; ++j)
                pattern[static_cast<std::size_t>(j)] =
                    pattern[static_cast<std::size_t>(j - 1)] + 1;
        }
    }
    return m_;
}

bool
LinearCode::decode(std::vector<Buffer> &chunks) const
{
    CHAMELEON_ASSERT(chunks.size() == static_cast<std::size_t>(n()),
                     "decode expects ", n(), " chunk slots");
    std::vector<ChunkIndex> survivors;
    std::vector<ChunkIndex> missing;
    std::size_t size = 0;
    for (ChunkIndex i = 0; i < n(); ++i) {
        const auto &c = chunks[static_cast<std::size_t>(i)];
        if (c.empty()) {
            missing.push_back(i);
            continue;
        }
        if (survivors.empty())
            size = c.size();
        CHAMELEON_ASSERT(c.size() == size, "chunk sizes differ: ",
                         c.size(), " vs ", size, " at chunk ", i);
        survivors.push_back(i);
    }
    if (missing.empty())
        return true;

    // A missing chunk is recoverable iff its generator row lies in
    // the span of the survivor rows; expressing it as a combination
    // handles both MDS (RS) and non-MDS (LRC) patterns uniformly.
    // Every missing chunk reads the same survivors, so the rows form
    // one coefficient matrix and the survivors are read once.
    std::vector<gf::Elem> coeffs;
    coeffs.reserve(missing.size() * survivors.size());
    for (ChunkIndex miss : missing) {
        auto row = repairCoeffs(miss, survivors);
        if (!row)
            return false;
        coeffs.insert(coeffs.end(), row->begin(), row->end());
    }
    std::vector<const gf::Elem *> srcs(survivors.size());
    for (std::size_t i = 0; i < survivors.size(); ++i)
        srcs[i] =
            chunks[static_cast<std::size_t>(survivors[i])].data();
    std::vector<gf::Elem *> dsts;
    for (ChunkIndex miss : missing) {
        auto &out = chunks[static_cast<std::size_t>(miss)];
        out.assign(size, 0);
        dsts.push_back(out.data());
    }
    gf::mulAddRegionMatrix(dsts, size, srcs, coeffs);
    return true;
}

} // namespace ec
} // namespace chameleon
