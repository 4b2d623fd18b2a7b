#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace chameleon {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::below(uint64_t n)
{
    CHAMELEON_ASSERT(n >= 1, "below() requires n >= 1, got ", n);
    // Rejection-free multiply-shift would bias slightly for huge n;
    // rejection sampling keeps the draw exactly uniform.
    const uint64_t threshold = -n % n;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    CHAMELEON_ASSERT(lo <= hi, "range(", lo, ", ", hi, ") is empty");
    return lo + static_cast<int64_t>(
        below(static_cast<uint64_t>(hi - lo) + 1));
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

double
Rng::exponential(double mean)
{
    CHAMELEON_ASSERT(mean > 0, "exponential mean must be positive");
    double u = uniform();
    // Guard against log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

Rng
Rng::split()
{
    return Rng(next());
}

FixedBound::FixedBound(uint64_t bound)
    : bound_(bound), threshold_(0), reciprocal_(0)
{
    CHAMELEON_ASSERT(bound >= 1, "FixedBound requires bound >= 1, got ",
                     bound);
    threshold_ = -bound % bound;
    // ceil(2^128 / bound); wraps to 0 for bound 1, which still
    // yields remainder 0.
    reciprocal_ = ~static_cast<unsigned __int128>(0) / bound + 1;
}

uint64_t
FixedBound::draw(Rng &rng) const
{
    for (;;) {
        const uint64_t r = rng.next();
        if (r >= threshold_) {
            const unsigned __int128 low = reciprocal_ * r;
            const auto lo = static_cast<uint64_t>(low);
            const auto hi = static_cast<uint64_t>(low >> 64);
            // (low * bound) >> 128, from two 64x64 products.
            const unsigned __int128 carry =
                static_cast<unsigned __int128>(lo) * bound_ >> 64;
            return static_cast<uint64_t>(
                (static_cast<unsigned __int128>(hi) * bound_ + carry) >>
                64);
        }
    }
}

} // namespace chameleon
