/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the library draws from an explicitly
 * seeded Rng so that experiments are reproducible bit-for-bit. The
 * generator is xoshiro256** seeded via SplitMix64, which is both fast
 * and high quality, and — unlike std::mt19937 distributions — has
 * identical output across standard library implementations.
 */

#ifndef TAPAS_COMMON_RANDOM_HH
#define TAPAS_COMMON_RANDOM_HH

#include <cstdint>
#include <vector>

namespace tapas {

class Archive;

/**
 * SplitMix64 stream; used for seeding and as a cheap stateless hash
 * of (seed, index) pairs for per-entity variation.
 */
std::uint64_t splitMix64(std::uint64_t &state);

/** Stateless mix of two 64-bit values into one; for derived seeds. */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/** xoshiro256** pseudo-random generator with distribution helpers. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x7a7061734c4c4dULL);

    /** Raw 64 uniform bits. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller (cached second value). */
    double gaussian();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Standard normal via the ziggurat method (Doornik's ZIGNOR
     * layout): the same distribution as gaussian() drawn from a
     * different, ~4x cheaper consumption of the uniform stream —
     * one raw draw and a table compare on ~98% of calls instead of
     * log/sqrt/sincos per pair. For bulk noise generation (the
     * offline profiling benches draw hundreds of samples per
     * server).
     */
    double gaussianFast();

    /** Ziggurat normal with given mean and standard deviation. */
    double gaussianFast(double mean, double stddev);

    /** Exponential with given rate (mean 1/rate). */
    double exponential(double rate);

    /** Log-normal parameterized by the underlying normal's mu/sigma. */
    double logNormal(double mu, double sigma);

    /** Pareto (heavy tail) with scale x_m and shape alpha. */
    double pareto(double x_m, double alpha);

    /** Bernoulli trial with probability p of true. */
    bool bernoulli(double p);

    /** Poisson-distributed count with given mean (Knuth/normal appx). */
    int poisson(double mean);

    /** Derive an independent generator for a sub-component. */
    Rng fork(std::uint64_t stream_id);

    /** Serialize/restore the full generator state (checkpointing). */
    void checkpointState(Archive &ar);

  private:
    std::uint64_t s[4];
    double cachedGaussian = 0.0;
    bool hasCachedGaussian = false;
};

/**
 * Zipf-distributed ranks in [1, n] with exponent s, by inversion.
 * The weights 1/k^s and their left-fold sum are computed once; each
 * sample() draws one uniform() and subtracts weights in rank order
 * until the pick goes negative.
 */
class ZipfSampler
{
  public:
    ZipfSampler(int n, double s);

    /** One rank in [1, n]; consumes exactly one Rng::uniform(). */
    int sample(Rng &rng) const;

  private:
    std::vector<double> weights;
    double norm = 0.0;
};

} // namespace tapas

#endif // TAPAS_COMMON_RANDOM_HH
