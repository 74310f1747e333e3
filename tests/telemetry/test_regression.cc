/**
 * @file
 * Unit tests for the regression toolkit, including the paper's
 * model-selection finding: piecewise-polynomial generalizes below the
 * training range while random forests cannot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.hh"
#include "telemetry/regression.hh"

namespace tapas {
namespace {

TEST(Metrics, MaeRmseR2)
{
    const std::vector<double> truth = {1.0, 2.0, 3.0, 4.0};
    const std::vector<double> pred = {1.5, 2.0, 2.5, 4.0};
    EXPECT_DOUBLE_EQ(meanAbsoluteError(truth, pred), 0.25);
    EXPECT_NEAR(rootMeanSquaredError(truth, pred),
                std::sqrt(0.125), 1e-12);
    EXPECT_GT(rSquared(truth, pred), 0.8);
    EXPECT_DOUBLE_EQ(rSquared(truth, truth), 1.0);
}

TEST(LinearRegression, RecoversExactCoefficients)
{
    // y = 3 + 2*x0 - 0.5*x1, noiseless.
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const double a = rng.uniform(-5.0, 5.0);
        const double b = rng.uniform(0.0, 10.0);
        X.push_back({a, b});
        y.push_back(3.0 + 2.0 * a - 0.5 * b);
    }
    LinearRegression model;
    model.fit(X, y);
    ASSERT_EQ(model.coefficients().size(), 3u);
    EXPECT_NEAR(model.coefficients()[0], 3.0, 1e-6);
    EXPECT_NEAR(model.coefficients()[1], 2.0, 1e-6);
    EXPECT_NEAR(model.coefficients()[2], -0.5, 1e-6);
    EXPECT_NEAR(model.predict({1.0, 2.0}), 4.0, 1e-6);
}

TEST(LinearRegression, RobustToNoise)
{
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    Rng rng(2);
    for (int i = 0; i < 5000; ++i) {
        const double a = rng.uniform(0.0, 1.0);
        X.push_back({a});
        y.push_back(10.0 + 4.0 * a + rng.gaussian(0.0, 0.5));
    }
    LinearRegression model;
    model.fit(X, y);
    EXPECT_NEAR(model.coefficients()[1], 4.0, 0.1);
}

TEST(PolynomialRegression, FitsCubic)
{
    std::vector<double> xs;
    std::vector<double> ys;
    for (double x = 0.0; x <= 1.0; x += 0.05) {
        xs.push_back(x);
        ys.push_back(1.0 + 2.0 * x - x * x + 0.5 * x * x * x);
    }
    PolynomialRegression model(3);
    model.fit(xs, ys);
    for (double x = 0.05; x < 1.0; x += 0.1) {
        EXPECT_NEAR(model.predict(x),
                    1.0 + 2.0 * x - x * x + 0.5 * x * x * x, 1e-6);
    }
}

TEST(PolynomialRegression, DegreeOneIsLine)
{
    PolynomialRegression model(1);
    model.fit({0.0, 1.0, 2.0}, {1.0, 3.0, 5.0});
    EXPECT_NEAR(model.predict(10.0), 21.0, 1e-6);
}

/**
 * Reference OLS: normal equations over vector-of-vector storage,
 * solved by Gaussian elimination with partial pivoting and the same
 * 1e-9 ridge. Written independently of the library's flat solver, so
 * the library's weights are checked bitwise against it.
 */
std::vector<double>
referenceSolve(std::vector<std::vector<double>> A, std::vector<double> b)
{
    const std::size_t n = A.size();
    for (std::size_t i = 0; i < n; ++i)
        A[i][i] += 1e-9;
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::abs(A[r][col]) > std::abs(A[pivot][col]))
                pivot = r;
        }
        std::swap(A[col], A[pivot]);
        std::swap(b[col], b[pivot]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = A[r][col] / A[col][col];
            for (std::size_t c = col; c < n; ++c)
                A[r][c] -= factor * A[col][c];
            b[r] -= factor * b[col];
        }
    }
    std::vector<double> w(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (std::size_t c = i + 1; c < n; ++c)
            acc -= A[i][c] * w[c];
        w[i] = acc / A[i][i];
    }
    return w;
}

/** Reference OLS fit with an intercept column prepended. */
std::vector<double>
referenceFit(const std::vector<std::vector<double>> &rows,
             const std::vector<double> &y)
{
    const std::size_t d = rows.front().size() + 1;
    std::vector<std::vector<double>> xtx(d,
                                         std::vector<double>(d, 0.0));
    std::vector<double> xty(d, 0.0);
    std::vector<double> row(d, 0.0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        row[0] = 1.0;
        for (std::size_t j = 0; j < rows[i].size(); ++j)
            row[j + 1] = rows[i][j];
        for (std::size_t a = 0; a < d; ++a) {
            xty[a] += row[a] * y[i];
            for (std::size_t b = 0; b < d; ++b)
                xtx[a][b] += row[a] * row[b];
        }
    }
    return referenceSolve(std::move(xtx), std::move(xty));
}

void
expectBitwise(const std::vector<double> &got,
              const std::vector<double> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k)
        EXPECT_EQ(got[k], want[k]) << "weight " << k;
}

TEST(SharedDesign, SolveMatchesReferenceBitwise)
{
    // The batched profile fits rely on this: solving against a
    // shared design reproduces a from-scratch fit on the same rows
    // exactly, for every target vector.
    std::vector<std::vector<double>> rows;
    Rng rng(11);
    for (int i = 0; i < 60; ++i)
        rows.push_back({rng.uniform(-3.0, 3.0),
                        rng.uniform(0.0, 400.0),
                        rng.uniform(0.0, 1.0)});
    const SharedDesign design(rows);
    EXPECT_EQ(design.sampleCount(), rows.size());
    EXPECT_EQ(design.width(), 4u);

    for (int series = 0; series < 8; ++series) {
        std::vector<double> y;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            y.push_back(5.0 * rows[i][0] - 0.01 * rows[i][1] +
                        rng.gaussian(0.0, series + 1.0));
        }
        const std::vector<double> want = referenceFit(rows, y);
        std::vector<double> batched;
        design.solve(y, batched);
        SCOPED_TRACE(series);
        expectBitwise(batched, want);
        std::vector<double> into(design.width());
        design.solveInto(y.data(), into.data());
        expectBitwise(into, want);
    }
}

TEST(SharedDesign, WideSystemMatchesReferenceBitwise)
{
    // 10 features exceeds the stack-solve width: the heap path must
    // match the reference too.
    std::vector<std::vector<double>> rows;
    Rng rng(13);
    for (int i = 0; i < 80; ++i) {
        std::vector<double> row;
        for (int f = 0; f < 10; ++f)
            row.push_back(rng.uniform(-1.0, 1.0));
        rows.push_back(std::move(row));
    }
    std::vector<double> y;
    for (int i = 0; i < 80; ++i)
        y.push_back(rng.uniform(0.0, 10.0));
    const SharedDesign design(rows);
    std::vector<double> batched;
    design.solve(y, batched);
    expectBitwise(batched, referenceFit(rows, y));
}

TEST(LinearRegression, WeightsMatchReferenceBitwise)
{
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    Rng rng(17);
    for (int i = 0; i < 120; ++i) {
        const double a = rng.uniform(-5.0, 5.0);
        const double b = rng.uniform(0.0, 10.0);
        X.push_back({a, b});
        y.push_back(3.0 + 2.0 * a - 0.5 * b + rng.gaussian(0.0, 0.3));
    }
    LinearRegression model;
    model.fit(X, y);
    expectBitwise(model.coefficients(), referenceFit(X, y));
}

TEST(PolynomialRegression, WeightsMatchReferenceBitwise)
{
    std::vector<double> xs;
    std::vector<double> ys;
    std::vector<std::vector<double>> rows;
    Rng rng(19);
    for (int i = 0; i < 40; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        xs.push_back(x);
        ys.push_back(1500.0 + 900.0 * x * x + rng.gaussian(0.0, 20.0));
        rows.push_back({x, x * x, x * x * x});
    }
    PolynomialRegression model(3);
    model.fit(xs, ys);
    expectBitwise(model.coefficients(), referenceFit(rows, ys));
}

TEST(PiecewiseLinear, WeightsMatchReferenceBitwise)
{
    std::vector<std::vector<double>> X;
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    Rng rng(23);
    for (int i = 0; i < 90; ++i) {
        const double outside = rng.uniform(0.0, 40.0);
        const double load = rng.uniform(0.0, 1.0);
        X.push_back({outside, load});
        // Hinge basis: x0, then one hinge per (sorted) knot, then
        // the extra feature.
        rows.push_back({outside, std::max(0.0, outside - 15.0),
                        std::max(0.0, outside - 25.0), load});
        y.push_back(18.0 + 0.4 * outside + rng.gaussian(0.0, 0.3));
    }
    PiecewiseLinearModel model({25.0, 15.0}, 1);
    model.fit(X, y);
    expectBitwise(model.coefficients(), referenceFit(rows, y));
}

TEST(PiecewiseLinear, RecoversKneeFunction)
{
    // Ground truth shaped like the cooling curve: flat, then steep,
    // then damped, plus a linear load term.
    auto truth = [](double x, double load) {
        double base = 18.0;
        if (x > 15.0)
            base += 0.7 * (std::min(x, 25.0) - 15.0);
        if (x > 25.0)
            base += 0.35 * (x - 25.0);
        return base + 2.0 * load;
    };
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.uniform(0.0, 40.0);
        const double load = rng.uniform(0.0, 1.0);
        X.push_back({x, load});
        y.push_back(truth(x, load) + rng.gaussian(0.0, 0.25));
    }
    PiecewiseLinearModel model({15.0, 25.0}, 1);
    model.fit(X, y);

    std::vector<double> t;
    std::vector<double> p;
    for (double x = 2.0; x <= 38.0; x += 1.0) {
        for (double load : {0.1, 0.5, 0.9}) {
            t.push_back(truth(x, load));
            p.push_back(model.predict({x, load}));
        }
    }
    // The paper's bar: piecewise polynomial achieves MAE < 1C.
    EXPECT_LT(meanAbsoluteError(t, p), 0.5);
}

TEST(PiecewiseLinear, ExtrapolatesBelowTrainingRange)
{
    // Train only on x in [15, 35]; query x = 5.
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(15.0, 35.0);
        X.push_back({x});
        y.push_back(2.0 * x + rng.gaussian(0.0, 0.1));
    }
    PiecewiseLinearModel model({20.0, 30.0}, 0);
    model.fit(X, y);
    EXPECT_NEAR(model.predict({5.0}), 10.0, 1.5);
}

TEST(RegressionTree, FitsStepFunction)
{
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    for (int i = 0; i < 200; ++i) {
        const double x = i / 200.0;
        X.push_back({x});
        y.push_back(x < 0.5 ? 1.0 : 5.0);
    }
    RegressionTree tree(4, 5);
    tree.fit(X, y);
    EXPECT_NEAR(tree.predict({0.2}), 1.0, 0.01);
    EXPECT_NEAR(tree.predict({0.8}), 5.0, 0.01);
}

TEST(RegressionTree, RespectsMinSamples)
{
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    for (int i = 0; i < 10; ++i) {
        X.push_back({static_cast<double>(i)});
        y.push_back(static_cast<double>(i));
    }
    RegressionTree stump(10, 10);
    stump.fit(X, y);
    // min_samples = n forbids any split: constant prediction.
    EXPECT_NEAR(stump.predict({0.0}), 4.5, 1e-9);
    EXPECT_NEAR(stump.predict({9.0}), 4.5, 1e-9);
}

TEST(RandomForest, FitsSmoothFunction)
{
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.uniform(0.0, 10.0);
        X.push_back({x});
        y.push_back(std::sin(x) * 3.0 + rng.gaussian(0.0, 0.1));
    }
    RandomForest forest(20, 8, 5, 6);
    forest.fit(X, y);
    std::vector<double> t;
    std::vector<double> p;
    for (double x = 0.5; x < 9.5; x += 0.25) {
        t.push_back(std::sin(x) * 3.0);
        p.push_back(forest.predict({x}));
    }
    EXPECT_LT(meanAbsoluteError(t, p), 0.3);
}

TEST(RandomForest, CannotExtrapolateBelowTrainingSet)
{
    // The paper's stated reason for rejecting forests: they "struggle
    // to predict temperatures lower than those in the training set".
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(15.0, 35.0);
        X.push_back({x});
        y.push_back(2.0 * x + rng.gaussian(0.0, 0.1));
    }
    RandomForest forest(20, 8, 5, 8);
    forest.fit(X, y);
    // True value at 5.0 is 10; the forest cannot go below ~30
    // (2 * training minimum).
    EXPECT_GT(forest.predict({5.0}), 25.0);

    PiecewiseLinearModel spline({25.0}, 0);
    spline.fit(X, y);
    const double spline_err = std::abs(spline.predict({5.0}) - 10.0);
    const double forest_err = std::abs(forest.predict({5.0}) - 10.0);
    EXPECT_LT(spline_err, forest_err / 4.0);
}

TEST(RandomForest, DeterministicForSeed)
{
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    Rng rng(9);
    for (int i = 0; i < 300; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        X.push_back({x});
        y.push_back(x * x);
    }
    RandomForest a(10, 6, 3, 42);
    RandomForest b(10, 6, 3, 42);
    a.fit(X, y);
    b.fit(X, y);
    for (double x = 0.1; x < 1.0; x += 0.2)
        EXPECT_DOUBLE_EQ(a.predict({x}), b.predict({x}));
}

TEST(RegressionDeathTest, PredictBeforeFitPanics)
{
    LinearRegression model;
    EXPECT_DEATH(model.predict({1.0}), "predict before fit");
}

TEST(RegressionDeathTest, WidthMismatchPanics)
{
    LinearRegression model;
    model.fit({{1.0, 2.0}}, {3.0});
    EXPECT_DEATH(model.predict({1.0}), "feature width");
}

} // namespace
} // namespace tapas
