#include "telemetry/regression.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "common/random.hh"

namespace tapas {

double
meanAbsoluteError(const std::vector<double> &truth,
                  const std::vector<double> &pred)
{
    tapas_assert(truth.size() == pred.size() && !truth.empty(),
                 "MAE needs equal-length non-empty vectors");
    double total = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i)
        total += std::abs(truth[i] - pred[i]);
    return total / static_cast<double>(truth.size());
}

double
rootMeanSquaredError(const std::vector<double> &truth,
                     const std::vector<double> &pred)
{
    tapas_assert(truth.size() == pred.size() && !truth.empty(),
                 "RMSE needs equal-length non-empty vectors");
    double total = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        const double d = truth[i] - pred[i];
        total += d * d;
    }
    return std::sqrt(total / static_cast<double>(truth.size()));
}

double
rSquared(const std::vector<double> &truth,
         const std::vector<double> &pred)
{
    tapas_assert(truth.size() == pred.size() && !truth.empty(),
                 "R2 needs equal-length non-empty vectors");
    double mean = 0.0;
    for (double v : truth)
        mean += v;
    mean /= static_cast<double>(truth.size());
    double ss_res = 0.0;
    double ss_tot = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
        ss_tot += (truth[i] - mean) * (truth[i] - mean);
    }
    return ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 0.0;
}

namespace {

/**
 * Solve the symmetric system A w = b via Gaussian elimination with
 * partial pivoting over a row-major n x n matrix. Adds a tiny ridge
 * term for numerical robustness with collinear bases. Destroys @p A
 * and @p b in place; writes the weights into caller storage.
 */
void
solveNormalEquationsInPlace(double *A, double *b, std::size_t n,
                            double *w)
{
    for (std::size_t i = 0; i < n; ++i)
        A[i * n + i] += 1e-9;

    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::abs(A[r * n + col]) >
                std::abs(A[pivot * n + col])) {
                pivot = r;
            }
        }
        if (pivot != col) {
            std::swap_ranges(A + col * n, A + (col + 1) * n,
                             A + pivot * n);
        }
        std::swap(b[col], b[pivot]);
        tapas_assert(std::abs(A[col * n + col]) > 1e-15,
                     "singular normal equations");
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = A[r * n + col] / A[col * n + col];
            for (std::size_t c = col; c < n; ++c)
                A[r * n + c] -= factor * A[col * n + c];
            b[r] -= factor * b[col];
        }
    }
    for (std::size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (std::size_t c = i + 1; c < n; ++c)
            acc -= A[i * n + c] * w[c];
        w[i] = acc / A[i * n + i];
    }
}

} // namespace

SharedDesign::SharedDesign(
    const std::vector<std::vector<double>> &rows)
{
    tapas_assert(!rows.empty(), "shared design needs rows");
    samples = rows.size();
    wide = rows.front().size() + 1;
    basisRows.assign(samples * wide, 0.0);
    xtx.assign(wide * wide, 0.0);
    // Per observation, then the (a, b) loop: each X^T X entry sums
    // the observations in row order.
    for (std::size_t i = 0; i < samples; ++i) {
        tapas_assert(rows[i].size() + 1 == wide,
                     "ragged design rows");
        double *row = &basisRows[i * wide];
        row[0] = 1.0;
        for (std::size_t j = 0; j < rows[i].size(); ++j)
            row[j + 1] = rows[i][j];
        for (std::size_t a = 0; a < wide; ++a) {
            for (std::size_t b = 0; b < wide; ++b)
                xtx[a * wide + b] += row[a] * row[b];
        }
    }
}

void
SharedDesign::solve(const std::vector<double> &y,
                    std::vector<double> &weights) const
{
    tapas_assert(y.size() == samples,
                 "target length %zu does not match design %zu",
                 y.size(), samples);
    weights.resize(wide);
    solveInto(y.data(), weights.data());
}

void
SharedDesign::solveInto(const double *y, double *weights) const
{
    tapas_assert(ready(), "solve on an empty design");
    // Fleet refits call this once per series; small systems (the
    // common case — a handful of regression weights) solve entirely
    // on the stack.
    constexpr std::size_t kStackWidth = 8;
    if (wide <= kStackWidth) {
        double xty[kStackWidth] = {0.0};
        double a[kStackWidth * kStackWidth];
        std::copy(xtx.begin(), xtx.end(), a);
        for (std::size_t i = 0; i < samples; ++i) {
            const double *row = &basisRows[i * wide];
            for (std::size_t k = 0; k < wide; ++k)
                xty[k] += row[k] * y[i];
        }
        solveNormalEquationsInPlace(a, xty, wide, weights);
        return;
    }
    std::vector<double> xty(wide, 0.0);
    for (std::size_t i = 0; i < samples; ++i) {
        const double *row = &basisRows[i * wide];
        for (std::size_t a = 0; a < wide; ++a)
            xty[a] += row[a] * y[i];
    }
    std::vector<double> a = xtx;
    solveNormalEquationsInPlace(a.data(), xty.data(), wide, weights);
}

void
LinearRegression::fit(const std::vector<std::vector<double>> &X,
                      const std::vector<double> &y)
{
    SharedDesign(X).solve(y, weights);
}

double
LinearRegression::predict(const std::vector<double> &x) const
{
    return predict(x.data(), x.size());
}

double
LinearRegression::predict(const double *x, std::size_t n) const
{
    tapas_assert(fitted(), "predict before fit");
    tapas_assert(n + 1 == weights.size(),
                 "feature width %zu does not match fit width %zu",
                 n, weights.size() - 1);
    double acc = weights[0];
    for (std::size_t i = 0; i < n; ++i)
        acc += weights[i + 1] * x[i];
    return acc;
}

std::vector<double>
PolynomialRegression::basis(double x) const
{
    std::vector<double> row;
    row.reserve(static_cast<std::size_t>(deg));
    double term = x;
    for (int p = 1; p <= deg; ++p) {
        row.push_back(term);
        term *= x;
    }
    return row;
}

void
PolynomialRegression::fit(const std::vector<double> &xs,
                          const std::vector<double> &ys)
{
    tapas_assert(deg >= 1, "degree must be at least 1");
    std::vector<std::vector<double>> rows;
    rows.reserve(xs.size());
    for (double x : xs)
        rows.push_back(basis(x));
    ols.fit(rows, ys);
}

double
PolynomialRegression::predict(double x) const
{
    // Inline power basis: identical terms to basis(x), no allocation.
    const std::vector<double> &w = ols.coefficients();
    tapas_assert(ols.fitted(), "predict before fit");
    tapas_assert(w.size() == static_cast<std::size_t>(deg) + 1,
                 "degree %d does not match fit width %zu", deg,
                 w.size() - 1);
    double acc = w[0];
    double term = x;
    for (int p = 1; p <= deg; ++p) {
        acc += w[static_cast<std::size_t>(p)] * term;
        term *= x;
    }
    return acc;
}

PiecewiseLinearModel::PiecewiseLinearModel(std::vector<double> knots_,
                                           int extra_features)
    : knots(std::move(knots_)), extraFeatures(extra_features)
{
    std::sort(knots.begin(), knots.end());
}

std::vector<double>
PiecewiseLinearModel::basis(const std::vector<double> &x) const
{
    tapas_assert(x.size() ==
                 static_cast<std::size_t>(extraFeatures) + 1,
                 "expected %d features, got %zu", extraFeatures + 1,
                 x.size());
    std::vector<double> row;
    row.reserve(1 + knots.size() +
                static_cast<std::size_t>(extraFeatures));
    row.push_back(x[0]);
    for (double k : knots)
        row.push_back(std::max(0.0, x[0] - k));
    for (int i = 0; i < extraFeatures; ++i)
        row.push_back(x[static_cast<std::size_t>(i) + 1]);
    return row;
}

void
PiecewiseLinearModel::fit(const std::vector<std::vector<double>> &X,
                          const std::vector<double> &y)
{
    std::vector<std::vector<double>> rows;
    rows.reserve(X.size());
    for (const auto &x : X)
        rows.push_back(basis(x));
    ols.fit(rows, y);
}

double
PiecewiseLinearModel::predict(const std::vector<double> &x) const
{
    return predict(x.data(), x.size());
}

double
PiecewiseLinearModel::predict(const double *x, std::size_t n) const
{
    tapas_assert(n == static_cast<std::size_t>(extraFeatures) + 1,
                 "expected %d features, got %zu", extraFeatures + 1,
                 n);
    // Inline hinge basis: identical terms to basis(x), no allocation.
    const std::vector<double> &w = ols.coefficients();
    tapas_assert(ols.fitted(), "predict before fit");
    tapas_assert(w.size() ==
                 2 + knots.size() +
                     static_cast<std::size_t>(extraFeatures),
                 "basis width does not match fit width");
    double acc = w[0];
    std::size_t j = 1;
    acc += w[j++] * x[0];
    for (double k : knots)
        acc += w[j++] * std::max(0.0, x[0] - k);
    for (int i = 0; i < extraFeatures; ++i)
        acc += w[j++] * x[static_cast<std::size_t>(i) + 1];
    return acc;
}

RegressionTree::RegressionTree(int max_depth, int min_samples)
    : maxDepth(max_depth), minSamples(min_samples)
{
    tapas_assert(max_depth >= 1 && min_samples >= 1,
                 "invalid tree hyperparameters");
}

void
RegressionTree::fit(const std::vector<std::vector<double>> &X,
                    const std::vector<double> &y)
{
    tapas_assert(!X.empty() && X.size() == y.size(),
                 "tree fit needs matching non-empty X and y");
    nodes.clear();
    std::vector<std::size_t> indices(X.size());
    std::iota(indices.begin(), indices.end(), 0);
    build(X, y, indices, 0);
}

int
RegressionTree::build(const std::vector<std::vector<double>> &X,
                      const std::vector<double> &y,
                      std::vector<std::size_t> &indices, int depth)
{
    const int node_id = static_cast<int>(nodes.size());
    nodes.emplace_back();

    double mean = 0.0;
    for (std::size_t idx : indices)
        mean += y[idx];
    mean /= static_cast<double>(indices.size());
    nodes[node_id].value = mean;

    if (depth >= maxDepth ||
        indices.size() < 2 * static_cast<std::size_t>(minSamples)) {
        return node_id;
    }

    // Best variance-reducing split across features and midpoints.
    const std::size_t features = X.front().size();
    double best_score = 0.0;
    int best_feature = -1;
    double best_threshold = 0.0;

    double base_sse = 0.0;
    for (std::size_t idx : indices)
        base_sse += (y[idx] - mean) * (y[idx] - mean);

    for (std::size_t f = 0; f < features; ++f) {
        std::sort(indices.begin(), indices.end(),
                  [&](std::size_t a, std::size_t b) {
                      return X[a][f] < X[b][f];
                  });
        double left_sum = 0.0;
        double left_sq = 0.0;
        double right_sum = 0.0;
        double right_sq = 0.0;
        for (std::size_t idx : indices) {
            right_sum += y[idx];
            right_sq += y[idx] * y[idx];
        }
        for (std::size_t pos = 0; pos + 1 < indices.size(); ++pos) {
            const double v = y[indices[pos]];
            left_sum += v;
            left_sq += v * v;
            right_sum -= v;
            right_sq -= v * v;
            const auto nl = static_cast<double>(pos + 1);
            const auto nr =
                static_cast<double>(indices.size() - pos - 1);
            if (nl < minSamples || nr < minSamples)
                continue;
            if (X[indices[pos]][f] >= X[indices[pos + 1]][f])
                continue;
            const double sse =
                (left_sq - left_sum * left_sum / nl) +
                (right_sq - right_sum * right_sum / nr);
            const double score = base_sse - sse;
            if (score > best_score) {
                best_score = score;
                best_feature = static_cast<int>(f);
                best_threshold = 0.5 * (X[indices[pos]][f] +
                                        X[indices[pos + 1]][f]);
            }
        }
    }

    if (best_feature < 0)
        return node_id;

    std::vector<std::size_t> left;
    std::vector<std::size_t> right;
    for (std::size_t idx : indices) {
        if (X[idx][static_cast<std::size_t>(best_feature)] <=
            best_threshold) {
            left.push_back(idx);
        } else {
            right.push_back(idx);
        }
    }
    if (left.empty() || right.empty())
        return node_id;

    nodes[node_id].feature = best_feature;
    nodes[node_id].threshold = best_threshold;
    nodes[node_id].left = build(X, y, left, depth + 1);
    nodes[node_id].right = build(X, y, right, depth + 1);
    return node_id;
}

double
RegressionTree::predict(const std::vector<double> &x) const
{
    tapas_assert(fitted(), "predict before fit");
    int cursor = 0;
    while (!nodes[static_cast<std::size_t>(cursor)].leaf()) {
        const Node &node = nodes[static_cast<std::size_t>(cursor)];
        cursor = x[static_cast<std::size_t>(node.feature)] <=
                node.threshold
            ? node.left
            : node.right;
    }
    return nodes[static_cast<std::size_t>(cursor)].value;
}

RandomForest::RandomForest(int trees, int max_depth, int min_samples,
                           std::uint64_t seed_)
    : treeCount(trees), maxDepth(max_depth), minSamples(min_samples),
      seed(seed_)
{
    tapas_assert(trees >= 1, "forest needs at least one tree");
}

void
RandomForest::fit(const std::vector<std::vector<double>> &X,
                  const std::vector<double> &y)
{
    forest.clear();
    Rng rng(mixSeed(seed, 0x666f7265ULL));
    for (int t = 0; t < treeCount; ++t) {
        std::vector<std::vector<double>> bx;
        std::vector<double> by;
        bx.reserve(X.size());
        by.reserve(X.size());
        for (std::size_t i = 0; i < X.size(); ++i) {
            const auto pick = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(X.size()) - 1));
            bx.push_back(X[pick]);
            by.push_back(y[pick]);
        }
        RegressionTree tree(maxDepth, minSamples);
        tree.fit(bx, by);
        forest.push_back(std::move(tree));
    }
}

double
RandomForest::predict(const std::vector<double> &x) const
{
    tapas_assert(fitted(), "predict before fit");
    double total = 0.0;
    for (const RegressionTree &tree : forest)
        total += tree.predict(x);
    return total / static_cast<double>(forest.size());
}

} // namespace tapas
