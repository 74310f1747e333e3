/**
 * @file
 * Regression toolkit used to fit TAPAS's thermal/power profiles from
 * telemetry (paper Section 5.1). Implements the model families the
 * paper compared: linear, polynomial, piecewise polynomial (the
 * winner, MAE < 1C), and a regression-tree random forest (reported to
 * overfit and fail to extrapolate below the training range — a
 * property our tests reproduce).
 */

#ifndef TAPAS_TELEMETRY_REGRESSION_HH
#define TAPAS_TELEMETRY_REGRESSION_HH

#include <cstdint>
#include <vector>

namespace tapas {

/** Mean absolute error. */
double meanAbsoluteError(const std::vector<double> &truth,
                         const std::vector<double> &pred);

/** Root mean squared error. */
double rootMeanSquaredError(const std::vector<double> &truth,
                            const std::vector<double> &pred);

/** Coefficient of determination. */
double rSquared(const std::vector<double> &truth,
                const std::vector<double> &pred);

/**
 * Precomputed OLS design for fitting many target vectors against one
 * shared measurement grid (batched refits: every server in a fleet
 * observes the same bench sweep, only the targets differ). Stores
 * the intercept-augmented basis rows and the accumulated normal
 * matrix X^T X once; solve(y) then costs a single X^T y accumulation
 * plus one tiny dense solve per series. LinearRegression::fit is a
 * one-off SharedDesign solve, so the weights are bit-identical to an
 * unbatched fit on the same rows.
 */
class SharedDesign
{
  public:
    SharedDesign() = default;

    /** @param rows raw feature rows (no intercept column). */
    explicit SharedDesign(
        const std::vector<std::vector<double>> &rows);

    bool ready() const { return !basisRows.empty(); }
    std::size_t sampleCount() const { return samples; }
    /** Weight count, including the intercept. */
    std::size_t width() const { return wide; }

    /**
     * Solve for the weights of one target vector; @p weights is
     * resized to width().
     */
    void solve(const std::vector<double> &y,
               std::vector<double> &weights) const;

    /** Solve writing the weights into a caller-owned slice. */
    void solveInto(const double *y, double *weights) const;

  private:
    /** Row-major intercept-augmented rows: samples x width. */
    std::vector<double> basisRows;
    /** Accumulated X^T X (row-major width x width). */
    std::vector<double> xtx;
    std::size_t samples = 0;
    std::size_t wide = 0;
};

/**
 * Ordinary least squares over arbitrary feature rows, solved by
 * normal equations with Gaussian elimination and partial pivoting.
 * An intercept column is added internally.
 */
class LinearRegression
{
  public:
    /** Fit on rows X (n x d) against targets y (n). */
    void fit(const std::vector<std::vector<double>> &X,
             const std::vector<double> &y);

    bool fitted() const { return !weights.empty(); }

    double predict(const std::vector<double> &x) const;

    /**
     * Allocation-free variant for hot paths (per-step risk and
     * feasibility sweeps evaluate fitted models millions of times).
     */
    double predict(const double *x, std::size_t n) const;

    /** [intercept, w_0, ..., w_{d-1}]. */
    const std::vector<double> &coefficients() const { return weights; }

  private:
    std::vector<double> weights;
};

/** Single-feature polynomial regression of configurable degree. */
class PolynomialRegression
{
  public:
    explicit PolynomialRegression(int degree) : deg(degree) {}

    void fit(const std::vector<double> &xs,
             const std::vector<double> &ys);

    bool fitted() const { return ols.fitted(); }
    int degree() const { return deg; }

    double predict(double x) const;

    /** [intercept, w_1, ..., w_degree]. */
    const std::vector<double> &coefficients() const
    { return ols.coefficients(); }

  private:
    int deg;
    LinearRegression ols;

    std::vector<double> basis(double x) const;
};

/**
 * Piecewise-linear spline on the first feature (hinge basis at fixed
 * knots) plus plain linear terms for any extra features. This is the
 * "piecewise polynomial" family the paper selected: it captures the
 * cooling plant's knee behavior and extrapolates sanely.
 */
class PiecewiseLinearModel
{
  public:
    /**
     * @param knots hinge locations on feature 0
     * @param extra_features count of additional linear features
     */
    PiecewiseLinearModel(std::vector<double> knots,
                         int extra_features);

    void fit(const std::vector<std::vector<double>> &X,
             const std::vector<double> &y);

    bool fitted() const { return ols.fitted(); }

    double predict(const std::vector<double> &x) const;

    /** Allocation-free variant; evaluates the hinge basis inline. */
    double predict(const double *x, std::size_t n) const;

    /** [intercept, x0, one hinge per knot, extra features...]. */
    const std::vector<double> &coefficients() const
    { return ols.coefficients(); }

  private:
    std::vector<double> knots;
    int extraFeatures;
    LinearRegression ols;

    std::vector<double> basis(const std::vector<double> &x) const;
};

/** CART-style regression tree (mean leaf values, variance splits). */
class RegressionTree
{
  public:
    RegressionTree(int max_depth, int min_samples);

    void fit(const std::vector<std::vector<double>> &X,
             const std::vector<double> &y);

    double predict(const std::vector<double> &x) const;

    bool fitted() const { return !nodes.empty(); }

  private:
    struct Node
    {
        int feature = -1;
        double threshold = 0.0;
        double value = 0.0;
        int left = -1;
        int right = -1;

        bool leaf() const { return feature < 0; }
    };

    int maxDepth;
    int minSamples;
    std::vector<Node> nodes;

    int build(const std::vector<std::vector<double>> &X,
              const std::vector<double> &y,
              std::vector<std::size_t> &indices, int depth);
};

/** Bagged forest of regression trees. */
class RandomForest
{
  public:
    RandomForest(int trees, int max_depth, int min_samples,
                 std::uint64_t seed);

    void fit(const std::vector<std::vector<double>> &X,
             const std::vector<double> &y);

    double predict(const std::vector<double> &x) const;

    bool fitted() const { return !forest.empty(); }

  private:
    int treeCount;
    int maxDepth;
    int minSamples;
    std::uint64_t seed;
    std::vector<RegressionTree> forest;
};

} // namespace tapas

#endif // TAPAS_TELEMETRY_REGRESSION_HH
