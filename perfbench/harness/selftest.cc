/**
 * @file
 * Self-test of the benchmark's order statistics (stats.hh): known
 * percentiles, the tail-percentile rule, and quartiles that must equal
 * Python's statistics.quantiles(values, n=4). Exits non-zero on the
 * first mismatch.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expectNear(const char *what, double got, double want)
{
    if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
        std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
        ++failures;
    }
}

} // namespace

int
main()
{
    const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    expectNear("p0", percentile(ten, 0.0), 1.0);
    expectNear("p100", percentile(ten, 100.0), 10.0);
    expectNear("p50 even", median(ten), 5.5);
    expectNear("p90", percentile(ten, 90.0), 9.1);
    expectNear("p50 odd", median({3, 1, 2}), 2.0);
    expectNear("one value", percentile({4.0}, 99.0), 4.0);

    // Ten samples beyond the percentile: n * (1 - p/100) >= 10.
    expectNear("tail n=10", tailPercentile(10), 50.0);
    expectNear("tail n=20", tailPercentile(20), 50.0);
    expectNear("tail n=40", tailPercentile(40), 75.0);
    expectNear("tail n=100", tailPercentile(100), 90.0);
    expectNear("tail n=199", tailPercentile(199), 90.0);
    expectNear("tail n=200", tailPercentile(200), 95.0);
    expectNear("tail n=1000", tailPercentile(1000), 99.0);
    expectNear("tail n=9999", tailPercentile(9999), 99.0);
    expectNear("tail n=100000", tailPercentile(100000), 99.0);

    // Reference values from Python 3:
    //   statistics.quantiles([1..10 shuffled], n=4) == [2.75, 8.25]
    //   statistics.quantiles([1, 2], n=4)          == [0.75, 2.25]
    //   statistics.quantiles([5, 1, 3], n=4)       == [1.0, 5.0]
    //   statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 12.0]
    auto q = quartiles(ten);
    expectNear("q1 of 10", q[0], 2.75);
    expectNear("q3 of 10", q[1], 8.25);
    q = quartiles({1, 2});
    expectNear("q1 of 2", q[0], 0.75);
    expectNear("q3 of 2", q[1], 2.25);
    q = quartiles({5, 1, 3});
    expectNear("q1 of 3", q[0], 1.0);
    expectNear("q3 of 3", q[1], 5.0);
    q = quartiles({1, 2, 4, 8, 16});
    expectNear("q1 of 5", q[0], 1.5);
    expectNear("q3 of 5", q[1], 12.0);
    expectNear("relative IQR", relativeIqr({1, 2, 4, 8, 16}), 10.5 / 4.0);

    if (failures == 0)
        std::printf("perfbench self-test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
