/**
 * @file
 * Unit tests for the deterministic RNG and its distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/serialize.hh"

namespace tapas {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(13);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(0, 9);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 9);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(17);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianShiftScale)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, GaussianFastMomentsAndTail)
{
    // The ziggurat path must produce the same distribution as the
    // Box-Muller path: standard moments, symmetric, with a real
    // tail beyond the ziggurat's base layer boundary (|x| > 3.44).
    Rng rng(29);
    double sum = 0.0;
    double sq = 0.0;
    double cube = 0.0;
    int tail = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussianFast();
        sum += g;
        sq += g * g;
        cube += g * g * g;
        if (std::abs(g) > 3.442619855899)
            ++tail;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sq / n, 1.0, 0.01);
    EXPECT_NEAR(cube / n, 0.0, 0.05);
    // P(|N| > 3.4426) ~ 5.76e-4.
    EXPECT_GT(tail, n * 2.0e-4);
    EXPECT_LT(tail, n * 1.5e-3);
}

TEST(Rng, GaussianFastDeterministicPerSeed)
{
    Rng a(77);
    Rng b(77);
    for (int i = 0; i < 1000; ++i)
        EXPECT_DOUBLE_EQ(a.gaussianFast(), b.gaussianFast());
}

TEST(Rng, GaussianFastShiftScale)
{
    Rng rng(31);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussianFast(10.0, 2.0);
        sum += g;
        sq += (g - 10.0) * (g - 10.0);
    }
    EXPECT_NEAR(sum / n, 10.0, 0.02);
    EXPECT_NEAR(sq / n, 4.0, 0.05);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(23);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ExponentialIsPositive)
{
    Rng rng(29);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, LogNormalMedian)
{
    Rng rng(31);
    std::vector<double> vals;
    const int n = 100001;
    vals.reserve(n);
    for (int i = 0; i < n; ++i)
        vals.push_back(rng.logNormal(1.0, 0.5));
    std::sort(vals.begin(), vals.end());
    // Median of lognormal is exp(mu).
    EXPECT_NEAR(vals[n / 2], std::exp(1.0), 0.08);
}

TEST(Rng, ParetoRespectsScale)
{
    Rng rng(37);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ParetoIsHeavyTailed)
{
    Rng rng(41);
    int beyond_10x = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (rng.pareto(1.0, 1.1) > 10.0)
            ++beyond_10x;
    }
    // P(X > 10) = 10^-1.1 ~ 7.9%.
    EXPECT_NEAR(beyond_10x / static_cast<double>(n), 0.079, 0.01);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(43);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.3))
            ++hits;
    }
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, PoissonSmallMean)
{
    Rng rng(47);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.poisson(3.5);
    EXPECT_NEAR(sum / n, 3.5, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesNormalPath)
{
    Rng rng(53);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.poisson(200.0);
    EXPECT_NEAR(sum / n, 200.0, 1.0);
}

TEST(Rng, PoissonZeroMean)
{
    Rng rng(59);
    EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, ZipfRankOneMostFrequent)
{
    Rng rng(67);
    const ZipfSampler zipf(10, 1.2);
    std::vector<int> counts(11, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng)];
    for (int k = 2; k <= 10; ++k)
        EXPECT_GT(counts[1], counts[k]);
}

/**
 * Reference Zipf inversion: recomputes every weight with std::pow on
 * each call, summing the norm first and then subtracting in rank
 * order. ZipfSampler must reproduce it draw for draw.
 */
int
referenceZipf(Rng &rng, int n, double s)
{
    double norm = 0.0;
    for (int k = 1; k <= n; ++k)
        norm += 1.0 / std::pow(k, s);
    double pick = rng.uniform() * norm;
    for (int k = 1; k <= n; ++k) {
        pick -= 1.0 / std::pow(k, s);
        if (pick < 0.0)
            return k;
    }
    return n;
}

std::vector<std::uint8_t>
rngState(Rng rng)
{
    Archive ar = Archive::writer();
    rng.checkpointState(ar);
    return ar.takeBuffer();
}

TEST(ZipfSampler, MatchesReferenceInversionExactly)
{
    const std::pair<int, double> cases[] = {
        {1, 1.1}, {10, 1.2}, {50, 1.1}, {200, 0.8}};
    for (const auto &[n, s] : cases) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " s=" << s);
        const ZipfSampler sampler(n, s);
        Rng fast(1000 + static_cast<std::uint64_t>(n));
        Rng slow(1000 + static_cast<std::uint64_t>(n));
        int mismatches = 0;
        for (int i = 0; i < 10000; ++i) {
            const int rank = sampler.sample(fast);
            ASSERT_GE(rank, 1);
            ASSERT_LE(rank, n);
            mismatches += rank != referenceZipf(slow, n, s);
        }
        EXPECT_EQ(mismatches, 0);
        // Same words consumed: the full generator states agree.
        EXPECT_EQ(rngState(fast), rngState(slow));
    }
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(71);
    Rng child = parent.fork(1);
    Rng parent2(71);
    Rng child2 = parent2.fork(1);
    // Deterministic: same parent seed + stream id => same child.
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(child.next(), child2.next());
    // And different stream ids diverge.
    Rng parent3(71);
    Rng other = parent3.fork(2);
    int same = 0;
    Rng child3 = Rng(71).fork(1);
    for (int i = 0; i < 100; ++i) {
        if (child3.next() == other.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, MixSeedSensitiveToBothInputs)
{
    EXPECT_NE(mixSeed(1, 2), mixSeed(1, 3));
    EXPECT_NE(mixSeed(1, 2), mixSeed(2, 2));
    EXPECT_EQ(mixSeed(5, 9), mixSeed(5, 9));
}

} // namespace
} // namespace tapas
