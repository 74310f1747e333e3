#include "common/random.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace tapas {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);
    splitMix64(state);
    return splitMix64(state);
}

namespace {
inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}
} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 mantissa bits of uniformity.
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    tapas_assert(lo <= hi, "empty integer range [%lld, %lld]",
                 static_cast<long long>(lo), static_cast<long long>(hi));
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
}

double
Rng::gaussian()
{
    if (hasCachedGaussian) {
        hasCachedGaussian = false;
        return cachedGaussian;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedGaussian = r * std::sin(theta);
    hasCachedGaussian = true;
    return r * std::cos(theta);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

namespace {

/**
 * Ziggurat tables (Doornik ZIGNOR, 128 layers): layer edges x_i and
 * the edge ratios used for the fast accept test.
 */
struct ZigguratTables
{
    static constexpr int kLayers = 128;
    /** Tail start. */
    static constexpr double kR = 3.442619855899;
    /** Area of each layer (and the tail box). */
    static constexpr double kV = 9.91256303526217e-3;

    double x[kLayers + 1];
    double ratio[kLayers];

    ZigguratTables()
    {
        const double f = std::exp(-0.5 * kR * kR);
        x[0] = kV / f; // pseudo-edge covering the tail box
        x[1] = kR;
        x[kLayers] = 0.0;
        for (int i = 2; i < kLayers; ++i) {
            x[i] = std::sqrt(-2.0 *
                             std::log(kV / x[i - 1] +
                                      std::exp(-0.5 * x[i - 1] *
                                               x[i - 1])));
        }
        for (int i = 0; i < kLayers; ++i)
            ratio[i] = x[i + 1] / x[i];
    }
};

const ZigguratTables &
zigTables()
{
    static const ZigguratTables tables;
    return tables;
}

} // namespace

double
Rng::gaussianFast()
{
    const ZigguratTables &zig = zigTables();
    for (;;) {
        // One raw draw: 7 low bits pick the layer, the top 53 bits
        // form the uniform (the bit ranges are disjoint).
        const std::uint64_t bits = next();
        const int layer =
            static_cast<int>(bits & (ZigguratTables::kLayers - 1));
        const double u =
            2.0 * (static_cast<double>(bits >> 11) * 0x1.0p-53) -
            1.0;
        if (std::abs(u) < zig.ratio[layer])
            return u * zig.x[layer];
        if (layer == 0) {
            // Tail: Marsaglia's exact method beyond R.
            double tx = 0.0;
            double ty = 0.0;
            do {
                double u1 = 0.0;
                do {
                    u1 = uniform();
                } while (u1 <= 1e-300);
                tx = std::log(u1) / ZigguratTables::kR;
                double u2 = 0.0;
                do {
                    u2 = uniform();
                } while (u2 <= 1e-300);
                ty = std::log(u2);
            } while (-2.0 * ty < tx * tx);
            return u < 0.0 ? tx - ZigguratTables::kR
                           : ZigguratTables::kR - tx;
        }
        const double cand = u * zig.x[layer];
        const double f0 = std::exp(
            -0.5 * (zig.x[layer] * zig.x[layer] - cand * cand));
        const double f1 = std::exp(
            -0.5 *
            (zig.x[layer + 1] * zig.x[layer + 1] - cand * cand));
        if (f1 + uniform() * (f0 - f1) < 1.0)
            return cand;
    }
}

double
Rng::gaussianFast(double mean, double stddev)
{
    return mean + stddev * gaussianFast();
}

double
Rng::exponential(double rate)
{
    tapas_assert(rate > 0.0, "exponential rate must be positive");
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 1e-300);
    return -std::log(u) / rate;
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(gaussian(mu, sigma));
}

double
Rng::pareto(double x_m, double alpha)
{
    tapas_assert(x_m > 0.0 && alpha > 0.0, "invalid pareto parameters");
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 1e-300);
    return x_m / std::pow(u, 1.0 / alpha);
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

int
Rng::poisson(double mean)
{
    tapas_assert(mean >= 0.0, "poisson mean must be non-negative");
    if (mean <= 0.0)
        return 0;
    if (mean > 60.0) {
        // Normal approximation keeps large-rate sampling O(1).
        const double v = gaussian(mean, std::sqrt(mean));
        return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
    }
    // Knuth's method.
    const double limit = std::exp(-mean);
    double prod = uniform();
    int count = 0;
    while (prod > limit) {
        prod *= uniform();
        ++count;
    }
    return count;
}

Rng
Rng::fork(std::uint64_t stream_id)
{
    return Rng(mixSeed(next(), stream_id));
}

void
Rng::checkpointState(Archive &ar)
{
    for (std::uint64_t &word : s)
        ar.value(word);
    ar.value(cachedGaussian);
    ar.value(hasCachedGaussian);
}

ZipfSampler::ZipfSampler(int n, double s)
{
    tapas_assert(n >= 1, "zipf needs at least one rank");
    weights.reserve(static_cast<std::size_t>(n));
    for (int k = 1; k <= n; ++k) {
        weights.push_back(1.0 / std::pow(k, s));
        norm += weights.back();
    }
}

int
ZipfSampler::sample(Rng &rng) const
{
    double pick = rng.uniform() * norm;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        pick -= weights[i];
        if (pick < 0.0)
            return static_cast<int>(i) + 1;
    }
    return static_cast<int>(weights.size());
}

} // namespace tapas
