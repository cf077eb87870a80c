/// Additional L-BFGS-B validation on the standard unconstrained/bounded
/// test-function gallery, parameterized over starting points.

#include <gtest/gtest.h>

#include <cmath>

#include "optim/lbfgsb.hpp"
#include "oracles/gradient_check.hpp"

namespace qoc::optim {
namespace {

using oracle::check_gradient;

Objective booth() {
    return [](const std::vector<double>& x, std::vector<double>& g) {
        const double a = x[0] + 2.0 * x[1] - 7.0;
        const double b = 2.0 * x[0] + x[1] - 5.0;
        g = {2.0 * a + 4.0 * b, 4.0 * a + 2.0 * b};
        return a * a + b * b;
    };
}

Objective matyas() {
    return [](const std::vector<double>& x, std::vector<double>& g) {
        g = {0.52 * x[0] - 0.48 * x[1], 0.52 * x[1] - 0.48 * x[0]};
        return 0.26 * (x[0] * x[0] + x[1] * x[1]) - 0.48 * x[0] * x[1];
    };
}

Objective himmelblau() {
    return [](const std::vector<double>& x, std::vector<double>& g) {
        const double a = x[0] * x[0] + x[1] - 11.0;
        const double b = x[0] + x[1] * x[1] - 7.0;
        g = {4.0 * x[0] * a + 2.0 * b, 2.0 * a + 4.0 * x[1] * b};
        return a * a + b * b;
    };
}

TEST(LbfgsBFunctions, BoothMinimum) {
    const auto res = lbfgsb_minimize(booth(), {0.0, 0.0}, Bounds::uniform(2, -10.0, 10.0));
    EXPECT_NEAR(res.x[0], 1.0, 1e-5);
    EXPECT_NEAR(res.x[1], 3.0, 1e-5);
}

TEST(LbfgsBFunctions, MatyasMinimumAtOrigin) {
    const auto res = lbfgsb_minimize(matyas(), {3.0, -4.0}, Bounds::uniform(2, -10.0, 10.0));
    EXPECT_NEAR(res.x[0], 0.0, 1e-5);
    EXPECT_NEAR(res.x[1], 0.0, 1e-5);
}

class HimmelblauStarts : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(HimmelblauStarts, ReachesSomeGlobalMinimum) {
    // Himmelblau has four global minima, all with f = 0.
    const auto [x0, y0] = GetParam();
    const auto res = lbfgsb_minimize(himmelblau(), {x0, y0}, Bounds::uniform(2, -6.0, 6.0),
                                     {.max_iterations = 500});
    EXPECT_LT(res.f, 1e-8) << "start (" << x0 << ", " << y0 << ")";
}

INSTANTIATE_TEST_SUITE_P(Grid, HimmelblauStarts,
                         ::testing::Values(std::pair{0.0, 0.0}, std::pair{4.0, 4.0},
                                           std::pair{-4.0, 4.0}, std::pair{-4.0, -4.0},
                                           std::pair{4.0, -4.0}, std::pair{1.0, -2.0}));

TEST(LbfgsBFunctions, GradientCheckerAgreesOnTestFunctions) {
    for (const auto& [name, obj] : {std::pair<const char*, Objective>{"booth", booth()},
                                    {"matyas", matyas()},
                                    {"himmelblau", himmelblau()}}) {
        const auto res = check_gradient(obj, {0.7, -1.3});
        EXPECT_LT(res.max_rel_error, 1e-5) << name;
    }
}

/// Sphere in growing dimension with a random active box: L-BFGS-B must hit
/// the projection of the center onto the box.
class SphereDims : public ::testing::TestWithParam<int> {};

TEST_P(SphereDims, BoundedSphere) {
    const int n = GetParam();
    Objective sphere = [](const std::vector<double>& x, std::vector<double>& g) {
        g.resize(x.size());
        double f = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double c = 0.5 * static_cast<double>(i % 5) - 1.0;
            f += (x[i] - c) * (x[i] - c);
            g[i] = 2.0 * (x[i] - c);
        }
        return f;
    };
    const auto bounds = Bounds::uniform(n, -0.75, 0.75);
    const auto res =
        lbfgsb_minimize(sphere, std::vector<double>(n, 0.0), bounds, {.max_iterations = 300});
    for (int i = 0; i < n; ++i) {
        const double c = 0.5 * (i % 5) - 1.0;
        EXPECT_NEAR(res.x[i], std::clamp(c, -0.75, 0.75), 1e-6) << "i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, SphereDims, ::testing::Values(1, 3, 10, 50, 200));

TEST(LbfgsBFunctions, MixedFiniteInfiniteBounds) {
    Bounds b;
    b.lower = {-Bounds::kInf, 0.5};
    b.upper = {0.0, Bounds::kInf};
    Objective q = [](const std::vector<double>& x, std::vector<double>& g) {
        g = {2.0 * (x[0] - 1.0), 2.0 * (x[1] + 1.0)};
        return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 1.0) * (x[1] + 1.0);
    };
    const auto res = lbfgsb_minimize(q, {-1.0, 2.0}, b);
    EXPECT_NEAR(res.x[0], 0.0, 1e-7);  // clipped from 1.0
    EXPECT_NEAR(res.x[1], 0.5, 1e-7);  // clipped from -1.0
}

TEST(LbfgsBFunctions, IllConditionedQuadratic) {
    // Curvatures spanning 6 orders of magnitude.
    Objective q = [](const std::vector<double>& x, std::vector<double>& g) {
        g.resize(x.size());
        double f = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double w = std::pow(10.0, static_cast<double>(i) * 1.5);
            f += 0.5 * w * x[i] * x[i];
            g[i] = w * x[i];
        }
        return f;
    };
    const auto res = lbfgsb_minimize(q, {1.0, 1.0, 1.0, 1.0, 1.0}, Bounds::unbounded(5),
                                     {.max_iterations = 2000, .max_evaluations = 20000});
    EXPECT_LT(res.f, 1e-10);
}

}  // namespace
}  // namespace qoc::optim
