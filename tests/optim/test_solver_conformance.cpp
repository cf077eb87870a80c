/// Solver-conformance suite: one parameterized test battery that every
/// optimizer in `src/optim` must pass.  The suite lists the solver functions
/// itself (`kSolvers`); a new solver joins by adding one row:
///
///  * convex quadratic bowl -> converges to the minimizer;
///  * box bounds are respected by EVERY evaluated point, and an exterior
///    minimizer lands on the box face;
///  * mismatched or inverted bounds are rejected up front;
///  * the analytic Rosenbrock gradient passes check_gradient, and the
///    line-searching L-BFGS-B drives Rosenbrock to the optimum;
///  * a NaN value (or NaN gradient component) stops the solve with
///    `kNonFinite`, never as converged;
///  * repeated solves are bitwise deterministic;
///  * iteration records and the `solver.dispatches` counter are emitted.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "contracts/contracts.hpp"
#include "obs/obs.hpp"
#include "optim/gradient_descent.hpp"
#include "optim/lbfgsb.hpp"
#include "optim/nelder_mead.hpp"
#include "oracles/gradient_check.hpp"

namespace qoc::optim {
namespace {

using oracle::check_gradient;
using oracle::GradientCheckResult;

/// An objective in both flavours; each solver consumes the one it needs.
struct TestProblem {
    Objective objective;     ///< f(x) + gradient
    ScalarObjective scalar;  ///< f(x) only
};

/// One solver under test: exactly one of the two function pointers is set.
struct SolverCase {
    std::string name;
    Minimizer gradient = nullptr;
    OptimResult (*derivative_free)(const ScalarObjective&, std::vector<double>, const Bounds&,
                                   const SolverOptions&) = nullptr;

    OptimResult solve(const TestProblem& p, std::vector<double> x0, const Bounds& bounds,
                      const SolverOptions& opts) const {
        return gradient ? gradient(p.objective, std::move(x0), bounds, opts)
                        : derivative_free(p.scalar, std::move(x0), bounds, opts);
    }
};

/// Prints the case as its quoted name, so test ids end in
/// `GetParam() = "lbfgsb"` exactly as they did for a string parameter.
void PrintTo(const SolverCase& c, std::ostream* os) { *os << '"' << c.name << '"'; }

const SolverCase kSolvers[] = {
    {"lbfgsb", lbfgsb_minimize},
    {"gradient_descent", gradient_descent_minimize},
    {"nelder_mead", nullptr, nelder_mead_minimize},
};

/// Shifted convex bowl f(x) = sum (x_i - c_i)^2 with minimizer c.
TestProblem bowl_problem(const std::vector<double>& c) {
    TestProblem p;
    p.objective = [c](const std::vector<double>& x, std::vector<double>& grad) {
        double f = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double d = x[i] - c[i];
            f += d * d;
            grad[i] = 2.0 * d;
        }
        return f;
    };
    p.scalar = [c](const std::vector<double>& x) {
        double f = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double d = x[i] - c[i];
            f += d * d;
        }
        return f;
    };
    return p;
}

double rosenbrock(const std::vector<double>& x, std::vector<double>* grad) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    if (grad) {
        (*grad)[0] = -2.0 * a - 400.0 * x[0] * b;
        (*grad)[1] = 200.0 * b;
    }
    return a * a + 100.0 * b * b;
}

TestProblem rosenbrock_problem() {
    TestProblem p;
    p.objective = [](const std::vector<double>& x, std::vector<double>& grad) {
        return rosenbrock(x, &grad);
    };
    p.scalar = [](const std::vector<double>& x) { return rosenbrock(x, nullptr); };
    return p;
}

/// Generous budgets so even the first-order solvers converge on the bowl.
SolverOptions generous() {
    SolverOptions o;
    o.max_iterations = 2000;
    o.max_evaluations = 50000;
    return o;
}

class SolverConformance : public ::testing::TestWithParam<SolverCase> {
protected:
    const SolverCase& solver() const { return GetParam(); }
};

TEST_P(SolverConformance, ConvergesOnQuadraticBowl) {
    const std::vector<double> c = {0.7, -0.3, 0.25};
    const OptimResult r =
        solver().solve(bowl_problem(c), {0.0, 0.0, 0.0}, Bounds::uniform(3, -2.0, 2.0),
                       generous());
    EXPECT_LT(r.f, 1e-8) << to_string(r.reason);
    for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_NEAR(r.x[i], c[i], 1e-4) << "component " << i;
    }
    EXPECT_GT(r.evaluations, 0);
}

TEST_P(SolverConformance, EveryEvaluatedPointRespectsTheBox) {
    // Minimizer outside the box: the solver must push to the face and never
    // evaluate an out-of-box point (1e-12 slack for projected arithmetic).
    const std::vector<double> c = {1.5, -1.5};
    const Bounds box = Bounds::uniform(2, -1.0, 1.0);
    TestProblem p = bowl_problem(c);
    const Objective inner_obj = p.objective;
    const ScalarObjective inner_sc = p.scalar;
    auto check_in_box = [&box](const std::vector<double>& x) {
        for (std::size_t i = 0; i < x.size(); ++i) {
            EXPECT_GE(x[i], box.lower[i] - 1e-12) << "component " << i;
            EXPECT_LE(x[i], box.upper[i] + 1e-12) << "component " << i;
        }
    };
    p.objective = [&](const std::vector<double>& x, std::vector<double>& grad) {
        check_in_box(x);
        return inner_obj(x, grad);
    };
    p.scalar = [&](const std::vector<double>& x) {
        check_in_box(x);
        return inner_sc(x);
    };
    const OptimResult r = solver().solve(p, {0.0, 0.0}, box, generous());
    EXPECT_NEAR(r.x[0], 1.0, 1e-4);
    EXPECT_NEAR(r.x[1], -1.0, 1e-4);
    EXPECT_TRUE(box.contains(r.x));
}

TEST_P(SolverConformance, RejectsMismatchedAndInvertedBounds) {
    // The objective must never run: the bounds are checked before x0 is
    // evaluated (an unchecked `Bounds{}` would be read past its end).
    TestProblem p = bowl_problem({0.0, 0.0});
    int calls = 0;
    p.objective = [&calls](const std::vector<double>&, std::vector<double>&) {
        ++calls;
        return 0.0;
    };
    p.scalar = [&calls](const std::vector<double>&) {
        ++calls;
        return 0.0;
    };
    const std::vector<double> x0 = {0.1, 0.2};
    EXPECT_THROW(solver().solve(p, x0, Bounds{}, {}), std::invalid_argument);
    EXPECT_THROW(solver().solve(p, x0, Bounds::uniform(1, -1.0, 1.0), {}),
                 std::invalid_argument);
    Bounds short_upper = Bounds::uniform(2, -1.0, 1.0);
    short_upper.upper.pop_back();
    EXPECT_THROW(solver().solve(p, x0, short_upper, {}), std::invalid_argument);
    Bounds inverted = Bounds::uniform(2, -1.0, 1.0);
    inverted.lower[1] = 2.0;
    EXPECT_THROW(solver().solve(p, x0, inverted, {}), std::invalid_argument);
    EXPECT_EQ(calls, 0);
}

TEST_P(SolverConformance, RosenbrockGradientAndDescent) {
    const TestProblem p = rosenbrock_problem();
    // The oracle itself: analytic gradient matches central differences.
    const GradientCheckResult gc = check_gradient(p.objective, {-1.2, 1.0});
    EXPECT_LT(gc.max_rel_error, 1e-5);

    // Every solver must make progress from the classic start; the
    // line-searching L-BFGS-B must reach the (1, 1) optimum.  The
    // fixed-step first-order baseline and the simplex method are only held
    // to strict decrease (that is their historical behaviour).
    std::vector<double> g(2);
    const double f0 = p.objective({-1.2, 1.0}, g);
    const OptimResult r =
        solver().solve(p, {-1.2, 1.0}, Bounds::uniform(2, -5.0, 5.0), generous());
    EXPECT_LT(r.f, f0);
    if (solver().name == "lbfgsb") {
        EXPECT_LT(r.f, 1e-10) << to_string(r.reason);
        EXPECT_NEAR(r.x[0], 1.0, 1e-4);
        EXPECT_NEAR(r.x[1], 1.0, 1e-4);
    }
}

/// Runs with contracts disarmed, so the non-finite value reaches the solver
/// the way it does in a Release build.
class ContractsDisarmed {
public:
    ContractsDisarmed() : was_(contracts::enabled()) { contracts::set_enabled(false); }
    ~ContractsDisarmed() { contracts::set_enabled(was_); }
    ContractsDisarmed(const ContractsDisarmed&) = delete;
    ContractsDisarmed& operator=(const ContractsDisarmed&) = delete;

private:
    bool was_;
};

/// Rosenbrock whose third evaluation returns NaN: the value itself, or (for
/// `nan_gradient`) one gradient component while the value stays finite.
TestProblem nan_at_third_evaluation(int& evals, bool nan_gradient) {
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    TestProblem p;
    p.objective = [&evals, nan_gradient](const std::vector<double>& x,
                                         std::vector<double>& grad) {
        double f = rosenbrock(x, &grad);
        if (++evals == 3) {
            if (nan_gradient) {
                grad[1] = kNan;
            } else {
                f = kNan;
            }
        }
        return f;
    };
    p.scalar = [&evals](const std::vector<double>& x) {
        return ++evals == 3 ? kNan : rosenbrock(x, nullptr);
    };
    return p;
}

TEST_P(SolverConformance, NonFiniteEvaluationStopsWithNonFinite) {
    const ContractsDisarmed disarmed;
    for (const bool nan_gradient : {false, true}) {
        if (nan_gradient && !solver().gradient) continue;  // no gradient to poison
        SCOPED_TRACE(nan_gradient ? "NaN gradient component" : "NaN value");
        int evals = 0;
        SolverOptions opts = generous();
        opts.target_f = 1e-3;  // a NaN must not pass for the target either
        const OptimResult r = solver().solve(nan_at_third_evaluation(evals, nan_gradient),
                                             {-1.2, 1.0}, Bounds::uniform(2, -5.0, 5.0), opts);
        EXPECT_GE(evals, 3);
        EXPECT_EQ(r.reason, StopReason::kNonFinite) << to_string(r.reason);
    }
}

TEST_P(SolverConformance, RepeatedSolvesAreBitwiseDeterministic) {
    const std::vector<double> c = {0.4, -0.9, 0.1, 0.6};
    auto run = [&] {
        return solver().solve(bowl_problem(c), {0.5, 0.5, -0.5, -0.5},
                              Bounds::uniform(4, -1.0, 1.0), generous());
    };
    const OptimResult a = run();
    const OptimResult b = run();
    EXPECT_EQ(a.f, b.f);  // bitwise, not approx
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.evaluations, b.evaluations);
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i) EXPECT_EQ(a.x[i], b.x[i]) << "i=" << i;
}

TEST_P(SolverConformance, EmitsIterationRecordsAndDispatchCounter) {
    obs::reset_for_testing();
    obs::enable_metrics("");  // memory-only: counters without the JSONL stream

    SolverOptions opts = generous();
    std::vector<IterationRecord> records;
    opts.iter_callback = [&records](const IterationRecord& rec) { records.push_back(rec); };

    const std::vector<double> c = {0.3, -0.2};
    const OptimResult r =
        solver().solve(bowl_problem(c), {0.0, 0.0}, Bounds::uniform(2, -1.0, 1.0), opts);
    EXPECT_LT(r.f, 1e-8);

    ASSERT_FALSE(records.empty()) << "solver emitted no iteration records";
    int prev_iter = -1;  // solvers differ on 0- vs 1-based numbering
    int prev_evals = 0;
    for (const IterationRecord& rec : records) {
        EXPECT_GT(rec.iteration, prev_iter);
        EXPECT_GE(rec.n_fun_evals, prev_evals);
        EXPECT_TRUE(std::isfinite(rec.cost));
        prev_iter = rec.iteration;
        prev_evals = rec.n_fun_evals;
    }
    EXPECT_LE(prev_evals, r.evaluations);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSolverDispatches), 1u);

    obs::reset_for_testing();
}

// The instantiation name is part of every test id, so it stays "Registry".
INSTANTIATE_TEST_SUITE_P(Registry, SolverConformance, ::testing::ValuesIn(kSolvers),
                         [](const ::testing::TestParamInfo<SolverCase>& pinfo) {
                             return pinfo.param.name;  // identifier-safe names
                         });

}  // namespace
}  // namespace qoc::optim
