/**
 * @file
 * Order statistics for the benchmark's timings: percentiles, the tail
 * percentile rule, and the quartiles the benchmark's spread checks use.
 * Header-only so the self-test (selftest.cc) compiles it without the
 * simulator library.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/**
 * Percentile @p p (0..100) of @p values by linear interpolation between
 * closest ranks: rank p/100 * (n - 1), so p0 is the minimum and p100
 * the maximum.
 */
inline double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        throw std::invalid_argument("percentile of an empty sample");
    if (p < 0.0 || p > 100.0)
        throw std::invalid_argument("percentile outside [0, 100]");
    std::sort(values.begin(), values.end());
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(const std::vector<double> &values)
{
    return percentile(values, 50.0);
}

/**
 * Highest percentile of the ladder with at least ten samples beyond
 * it in a sample of @p n: n * (1 - p/100) >= 10. Falls back to the
 * median for samples under 20. The ladder stops at p99: on a shared
 * host the 99.9th percentile of a step time measures the host's
 * hiccups more than the program.
 */
inline double
tailPercentile(std::size_t n)
{
    static constexpr std::array<double, 5> kLadder = {99.0, 95.0, 90.0,
                                                      75.0, 50.0};
    for (double p : kLadder) {
        if (static_cast<double>(n) * (100.0 - p) >= 10.0 * 100.0 - 1e-9)
            return p;
    }
    return 50.0;
}

/**
 * First and third quartile exactly as Python's
 * statistics.quantiles(values, n=4) computes them (the default
 * "exclusive" method), so in-run spreads read like the spreads the
 * benchmark's consumers compute across runs. Needs two values.
 */
inline std::array<double, 2>
quartiles(std::vector<double> values)
{
    if (values.size() < 2)
        throw std::invalid_argument("quartiles need two values");
    std::sort(values.begin(), values.end());
    const long n = static_cast<long>(values.size());
    const long m = n + 1;
    std::array<double, 2> out{};
    for (std::size_t k = 0; k < 2; ++k) {
        const long i = k == 0 ? 1 : 3;
        // Same integer steps as Python: clamp the rank into [1, n - 1]
        // first, then take the remainder (negative or above 4 only for
        // samples of two or three, where Python extrapolates too).
        const long j = std::clamp(i * m / 4, 1L, n - 1);
        const long delta = i * m - j * 4;
        out[k] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
            4.0;
    }
    return out;
}

/** Interquartile range as a share of the median (0 for one value). */
inline double
relativeIqr(const std::vector<double> &values)
{
    if (values.size() < 2)
        return 0.0;
    const double mid = median(values);
    if (mid == 0.0)
        return 0.0;
    const auto q = quartiles(values);
    return (q[1] - q[0]) / mid;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
