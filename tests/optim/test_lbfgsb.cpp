#include "optim/lbfgsb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"

namespace qoc::optim {
namespace {

/// N-dimensional Rosenbrock: global minimum at (1, ..., 1) with f = 0.
double rosenbrock(const std::vector<double>& x, std::vector<double>& g) {
    const std::size_t n = x.size();
    g.assign(n, 0.0);
    double f = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const double a = x[i + 1] - x[i] * x[i];
        const double b = 1.0 - x[i];
        f += 100.0 * a * a + b * b;
        g[i] += -400.0 * a * x[i] - 2.0 * b;
        g[i + 1] += 200.0 * a;
    }
    return f;
}

/// Convex quadratic with distinct curvatures, minimum at center c.
Objective quadratic(std::vector<double> c) {
    return [c = std::move(c)](const std::vector<double>& x, std::vector<double>& g) {
        g.assign(x.size(), 0.0);
        double f = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double w = 1.0 + static_cast<double>(i);
            f += 0.5 * w * (x[i] - c[i]) * (x[i] - c[i]);
            g[i] = w * (x[i] - c[i]);
        }
        return f;
    };
}

TEST(LbfgsB, QuadraticUnbounded) {
    const std::vector<double> c{1.0, -2.0, 3.0, 0.5};
    const auto res = lbfgsb_minimize(quadratic(c), {0.0, 0.0, 0.0, 0.0},
                                     Bounds::unbounded(4));
    ASSERT_EQ(res.x.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(res.x[i], c[i], 1e-6);
    EXPECT_LT(res.f, 1e-12);
}

TEST(LbfgsB, QuadraticWithActiveBounds) {
    // Minimum at (1, -2, 3) but box is [0, 2]^3: solution clips to (1, 0, 2).
    const auto res = lbfgsb_minimize(quadratic({1.0, -2.0, 3.0}), {0.5, 0.5, 0.5},
                                     Bounds::uniform(3, 0.0, 2.0));
    EXPECT_NEAR(res.x[0], 1.0, 1e-6);
    EXPECT_NEAR(res.x[1], 0.0, 1e-8);
    EXPECT_NEAR(res.x[2], 2.0, 1e-8);
}

TEST(LbfgsB, Rosenbrock2D) {
    const auto res = lbfgsb_minimize(rosenbrock, {-1.2, 1.0}, Bounds::unbounded(2),
                                     {.max_iterations = 1000});
    EXPECT_NEAR(res.x[0], 1.0, 1e-5);
    EXPECT_NEAR(res.x[1], 1.0, 1e-5);
    EXPECT_LT(res.f, 1e-10);
}

TEST(LbfgsB, Rosenbrock10D) {
    std::vector<double> x0(10, -1.0);
    const auto res = lbfgsb_minimize(rosenbrock, x0, Bounds::unbounded(10),
                                     {.max_iterations = 3000, .max_evaluations = 20000});
    for (double v : res.x) EXPECT_NEAR(v, 1.0, 1e-4);
}

TEST(LbfgsB, RosenbrockBoundedAwayFromMinimum) {
    // Box [-2, 0.5]^2 excludes (1,1); the constrained solution rides the
    // x0 = 0.5 bound (known result: x = (0.5, 0.25)).
    const auto res = lbfgsb_minimize(rosenbrock, {-1.0, -1.0},
                                     Bounds::uniform(2, -2.0, 0.5),
                                     {.max_iterations = 2000});
    EXPECT_NEAR(res.x[0], 0.5, 1e-6);
    EXPECT_NEAR(res.x[1], 0.25, 1e-5);
}

TEST(LbfgsB, BealeFunction) {
    // Beale: min at (3, 0.5), f = 0.
    Objective beale = [](const std::vector<double>& x, std::vector<double>& g) {
        const double a = 1.5 - x[0] + x[0] * x[1];
        const double b = 2.25 - x[0] + x[0] * x[1] * x[1];
        const double c = 2.625 - x[0] + x[0] * x[1] * x[1] * x[1];
        g.assign(2, 0.0);
        g[0] = 2.0 * a * (x[1] - 1.0) + 2.0 * b * (x[1] * x[1] - 1.0) +
               2.0 * c * (x[1] * x[1] * x[1] - 1.0);
        g[1] = 2.0 * a * x[0] + 2.0 * b * 2.0 * x[0] * x[1] +
               2.0 * c * 3.0 * x[0] * x[1] * x[1];
        return a * a + b * b + c * c;
    };
    const auto res = lbfgsb_minimize(beale, {1.0, 1.0}, Bounds::uniform(2, -4.5, 4.5),
                                     {.max_iterations = 1000});
    EXPECT_NEAR(res.x[0], 3.0, 1e-4);
    EXPECT_NEAR(res.x[1], 0.5, 1e-4);
}

TEST(LbfgsB, StartOutsideBoxIsClipped) {
    const auto res = lbfgsb_minimize(quadratic({0.0, 0.0}), {10.0, -10.0},
                                     Bounds::uniform(2, -1.0, 1.0));
    EXPECT_NEAR(res.x[0], 0.0, 1e-7);
    EXPECT_NEAR(res.x[1], 0.0, 1e-7);
}

TEST(LbfgsB, TargetObjectiveStopsEarly) {
    SolverOptions opts;
    opts.target_f = 1.0;
    const auto res = lbfgsb_minimize(rosenbrock, {-1.2, 1.0}, Bounds::unbounded(2), opts);
    EXPECT_EQ(res.reason, StopReason::kTargetReached);
    EXPECT_LE(res.f, 1.0);
}

TEST(LbfgsB, MaxIterationsRespected) {
    SolverOptions opts;
    opts.max_iterations = 2;
    opts.tol = 0.0;
    opts.f_tol = 0.0;
    const auto res = lbfgsb_minimize(rosenbrock, {-1.2, 1.0}, Bounds::unbounded(2), opts);
    EXPECT_LE(res.iterations, 2);
}

TEST(LbfgsB, CallbackObservesMonotoneDecrease) {
    std::vector<double> history;
    SolverOptions opts;
    opts.iter_callback = [&](const IterationRecord& rec) { history.push_back(rec.cost); };
    lbfgsb_minimize(rosenbrock, {-1.2, 1.0}, Bounds::unbounded(2), opts);
    ASSERT_GT(history.size(), 2u);
    for (std::size_t i = 1; i < history.size(); ++i) EXPECT_LE(history[i], history[i - 1] + 1e-12);
}

TEST(LbfgsB, MismatchedBoundsThrow) {
    Bounds b = Bounds::unbounded(3);
    EXPECT_THROW(lbfgsb_minimize(quadratic({0.0, 0.0}), {0.0, 0.0}, b), std::invalid_argument);
    Bounds bad = Bounds::uniform(2, 1.0, -1.0);
    EXPECT_THROW(lbfgsb_minimize(quadratic({0.0, 0.0}), {0.0, 0.0}, bad),
                 std::invalid_argument);
}

TEST(LbfgsB, AlreadyAtMinimumConvergesImmediately) {
    const auto res = lbfgsb_minimize(quadratic({1.0, 1.0}), {1.0, 1.0}, Bounds::unbounded(2));
    EXPECT_EQ(res.reason, StopReason::kConverged);
    EXPECT_LE(res.iterations, 1);
}

TEST(LbfgsB, TightBoxPinsAllVariables) {
    // Degenerate box [0.3, 0.3]^2: nothing to optimize, stays at corner.
    const auto res = lbfgsb_minimize(quadratic({1.0, 1.0}), {0.3, 0.3},
                                     Bounds::uniform(2, 0.3, 0.3));
    EXPECT_DOUBLE_EQ(res.x[0], 0.3);
    EXPECT_DOUBLE_EQ(res.x[1], 0.3);
}

TEST(LbfgsB, EvaluationBudgetExhaustedInLineSearchReportsMaxEvaluations) {
    // f = 100 x^2 from x0 = 1: the first step overshoots, so the budget runs
    // out inside the first line search, while the model is still empty.
    Objective steep = [](const std::vector<double>& x, std::vector<double>& g) {
        g[0] = 200.0 * x[0];
        return 100.0 * x[0] * x[0];
    };
    for (const int budget : {2, 3, 4}) {
        const auto res = lbfgsb_minimize(steep, {1.0}, Bounds::unbounded(1),
                                         {.max_evaluations = budget});
        EXPECT_EQ(res.reason, StopReason::kMaxEvaluations) << "budget " << budget;
        EXPECT_LE(res.evaluations, budget);
    }
}

/// Bounded, coupled SPD quadratic f = x^T A x / 2 - b^T x on [-1, 1]^64 with
/// A tridiagonal (diagonal 2.1..2.5, off-diagonal -1).  About a quarter of the
/// variables sit on a bound at the minimizer.  The reference minimizer comes
/// from projected Gauss-Seidel, which shares no code with the solver.
struct BoxQuadratic {
    static constexpr std::size_t kN = 64;
    std::vector<double> diag, b, x_star;
    Bounds box = Bounds::uniform(kN, -1.0, 1.0);

    BoxQuadratic() : diag(kN), b(kN), x_star(kN, 0.0) {
        for (std::size_t i = 0; i < kN; ++i) {
            const double t = static_cast<double>(i);
            diag[i] = 2.3 + 0.2 * std::sin(0.9 * t);
            b[i] = 0.5 * std::sin(0.23 * t) + 0.1 * std::cos(1.7 * t);
        }
        for (int sweep = 0; sweep < 100000; ++sweep) {
            double change = 0.0;
            for (std::size_t i = 0; i < kN; ++i) {
                double off = 0.0;
                if (i > 0) off -= x_star[i - 1];
                if (i + 1 < kN) off -= x_star[i + 1];
                const double xi = std::clamp((b[i] - off) / diag[i], -1.0, 1.0);
                change = std::max(change, std::abs(xi - x_star[i]));
                x_star[i] = xi;
            }
            if (change == 0.0) break;
        }
    }

    double a_times(const std::vector<double>& v, std::size_t i) const {
        double out = diag[i] * v[i];
        if (i > 0) out -= v[i - 1];
        if (i + 1 < kN) out -= v[i + 1];
        return out;
    }

    static bool at_bound(double v) { return v == -1.0 || v == 1.0; }

    /// f - f(x_star), summed as g*^T e + e^T A e / 2 (e = x - x_star) so that
    /// the decrease stays resolvable next to the minimizer.  `bump` is added
    /// to the value only.
    double operator()(const std::vector<double>& x, std::vector<double>& g,
                      double bump = 0.0) const {
        std::vector<double> e(kN);
        for (std::size_t i = 0; i < kN; ++i) e[i] = x[i] - x_star[i];
        double f = bump;
        for (std::size_t i = 0; i < kN; ++i) {
            g[i] = a_times(x, i) - b[i];
            f += (a_times(x_star, i) - b[i]) * e[i] + 0.5 * e[i] * a_times(e, i);
        }
        return f;
    }

    /// Starts every bound-active variable of the minimizer strictly inside
    /// and every free one on a bound, so variables must both enter and leave
    /// the free set on the way.
    std::vector<double> crossing_start() const {
        std::vector<double> x0(kN);
        for (std::size_t i = 0; i < kN; ++i) {
            x0[i] = at_bound(x_star[i]) ? 0.0 : (i % 2 == 1 ? 1.0 : -1.0);
        }
        return x0;
    }

    double max_error(const std::vector<double>& x) const {
        double err = 0.0;
        for (std::size_t i = 0; i < kN; ++i) err = std::max(err, std::abs(x[i] - x_star[i]));
        return err;
    }
};

SolverOptions tight_options() {
    SolverOptions opts;
    opts.tol = 1e-11;
    opts.f_tol = 0.0;
    opts.max_iterations = 1000;
    return opts;
}

TEST(LbfgsB, CoupledBoxQuadraticMatchesProjectedGaussSeidel) {
    const BoxQuadratic q;
    const std::vector<double> x0 = q.crossing_start();
    std::size_t active = 0, entering = 0, leaving = 0;
    for (std::size_t i = 0; i < BoxQuadratic::kN; ++i) {
        active += BoxQuadratic::at_bound(q.x_star[i]) ? 1 : 0;
        entering += (!BoxQuadratic::at_bound(x0[i]) && BoxQuadratic::at_bound(q.x_star[i])) ? 1 : 0;
        leaving += (BoxQuadratic::at_bound(x0[i]) && !BoxQuadratic::at_bound(q.x_star[i])) ? 1 : 0;
    }
    ASSERT_GE(active, 12u);
    ASSERT_LE(active, 20u);
    ASSERT_GT(entering, 0u);
    ASSERT_GT(leaving, 0u);

    const auto res = lbfgsb_minimize(
        [&q](const std::vector<double>& x, std::vector<double>& g) { return q(x, g); }, x0,
        q.box, tight_options());
    EXPECT_EQ(res.reason, StopReason::kConverged);
    // Every iteration pushes a pair on an SPD quadratic: more than 10 of
    // them wrap the 10-pair memory.
    EXPECT_GT(res.iterations, 12);
    EXPECT_LE(q.max_error(res.x), 1e-8);
    for (std::size_t i = 0; i < BoxQuadratic::kN; ++i)
        EXPECT_EQ(BoxQuadratic::at_bound(res.x[i]), BoxQuadratic::at_bound(q.x_star[i])) << i;
}

TEST(LbfgsB, FailedLineSearchResetsTheModelAndKeepsConverging) {
    // Every value of iteration 5's line search is bumped by 1e3, so no trial
    // step decreases f and the search fails with a non-empty model.  The
    // solver must drop the model and converge from the same point.
    const BoxQuadratic q;
    int iteration = -1;
    SolverOptions opts = tight_options();
    opts.iter_callback = [&iteration](const IterationRecord& rec) { iteration = rec.iteration; };
    obs::reset_for_testing();
    obs::enable_metrics("");
    const auto res = lbfgsb_minimize(
        [&](const std::vector<double>& x, std::vector<double>& g) {
            return q(x, g, iteration == 5 ? 1e3 : 0.0);
        },
        q.crossing_start(), q.box, opts);
    const std::uint64_t resets = obs::counter_value(obs::Cnt::kLbfgsbModelResets);
    obs::reset_for_testing();
    EXPECT_EQ(resets, 1u);
    EXPECT_EQ(res.reason, StopReason::kConverged);
    EXPECT_GT(res.iterations, 12);
    EXPECT_LE(q.max_error(res.x), 1e-8);
}

TEST(LbfgsB, BoxActiveIterationsCountCauchyFixes) {
    const BoxQuadratic q;
    const Objective f = [&q](const std::vector<double>& x, std::vector<double>& g) {
        return q(x, g);
    };
    obs::reset_for_testing();
    obs::enable_metrics("");
    const auto boxed = lbfgsb_minimize(f, q.crossing_start(), q.box, tight_options());
    const std::uint64_t boxed_count = obs::counter_value(obs::Cnt::kLbfgsbBoxActiveIters);
    obs::reset_for_testing();
    obs::enable_metrics("");
    lbfgsb_minimize(f, std::vector<double>(BoxQuadratic::kN, 0.0),
                    Bounds::unbounded(BoxQuadratic::kN), tight_options());
    const std::uint64_t free_count = obs::counter_value(obs::Cnt::kLbfgsbBoxActiveIters);
    obs::reset_for_testing();

    // A quarter of the variables end on the box: from there on every Cauchy
    // point fixes them.  Without a box nothing is ever fixed.
    EXPECT_GT(boxed_count, 0u);
    EXPECT_LE(boxed_count, static_cast<std::uint64_t>(boxed.iterations));
    EXPECT_EQ(free_count, 0u);
}

/// Property-style sweep: random convex quadratics with random boxes must
/// converge to the clipped center (the exact solution for separable
/// quadratics).
class LbfgsBQuadraticSweep : public ::testing::TestWithParam<int> {};

TEST_P(LbfgsBQuadraticSweep, SolvesSeparableBoundedQuadratic) {
    const int seed = GetParam();
    std::srand(static_cast<unsigned>(seed));
    const std::size_t n = 5 + static_cast<std::size_t>(seed % 7);
    std::vector<double> c(n);
    Bounds b;
    b.lower.resize(n);
    b.upper.resize(n);
    auto rnd = [] { return -3.0 + 6.0 * (static_cast<double>(std::rand()) / RAND_MAX); };
    for (std::size_t i = 0; i < n; ++i) {
        c[i] = rnd();
        const double lo = rnd(), hi = rnd();
        b.lower[i] = std::min(lo, hi);
        b.upper[i] = std::max(lo, hi) + 0.1;
    }
    std::vector<double> x0(n, 0.0);
    b.clip(x0);
    const auto res = lbfgsb_minimize(quadratic(c), x0, b, {.max_iterations = 500});
    for (std::size_t i = 0; i < n; ++i) {
        const double expect = std::clamp(c[i], b.lower[i], b.upper[i]);
        EXPECT_NEAR(res.x[i], expect, 1e-5) << "i=" << i << " seed=" << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LbfgsBQuadraticSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace qoc::optim
