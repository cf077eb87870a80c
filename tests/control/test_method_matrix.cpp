/// The method matrix: every `OptimMethod` through `pulse_optim` on the same
/// 2-level X spec with the same budget.  Each method must reach a loose
/// target (and say so in its stop reason), keep every control inside its
/// box, and report its iterations through `iteration_records`.  Open-system
/// specs run on the three generic methods and are rejected by the
/// closed-only Krotov.  Every method counts exactly one `solver.dispatches`.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/pulseoptim.hpp"
#include "obs/obs.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"

namespace qoc::control {
namespace {

using M = OptimMethod;

constexpr M kAllMethods[] = {M::kLbfgsB, M::kGradientDescent, M::kCrab, M::kKrotov};

/// The A1 ablation's easy problem: X on a resonant qubit, 32 slots, 60 ns.
PulseOptimSpec x_spec(M method) {
    PulseOptimSpec s;
    s.h_drift = Mat(2, 2);
    s.h_ctrls = {0.5 * quantum::sigma_x(), 0.5 * quantum::sigma_y()};
    s.u_target = quantum::gates::x();
    s.n_timeslots = 32;
    s.evo_time = 60.0;
    s.initial_pulse = InitialPulseType::kDrag;
    s.initial_scale = 0.08;
    s.method = method;
    return s;
}

/// A loose target each method reaches within the default budget.
double loose_target(M method) { return method == M::kCrab ? 1e-3 : 1e-4; }

TEST(MethodMatrix, EveryMethodReachesTargetInsideItsBox) {
    for (const M method : kAllMethods) {
        SCOPED_TRACE(method_name(method));
        PulseOptimSpec s = x_spec(method);
        s.target_fid_err = loose_target(method);
        // The seed's quadrature peaks at 0.016, above its 0.01 cap, so a
        // method ignoring per-control bounds leaves the box.
        const std::vector<double> lo = {-0.1, -0.01}, hi = {0.1, 0.01};
        s.amp_lower_per_ctrl = lo;
        s.amp_upper_per_ctrl = hi;

        const GrapeResult res = pulse_optim(s);
        EXPECT_EQ(res.reason, optim::StopReason::kTargetReached)
            << optim::to_string(res.reason);
        EXPECT_LE(res.final_fid_err, s.target_fid_err);
        EXPECT_LT(res.final_fid_err, res.initial_fid_err);
        EXPECT_FALSE(res.iteration_records.empty());
        EXPECT_GT(res.iterations, 0);
        ASSERT_EQ(res.final_amps.size(), s.n_timeslots);
        for (const auto& slot : res.final_amps) {
            ASSERT_EQ(slot.size(), 2u);
            for (std::size_t j = 0; j < 2; ++j) {
                EXPECT_GE(slot[j], lo[j] - 1e-12) << "control " << j;
                EXPECT_LE(slot[j], hi[j] + 1e-12) << "control " << j;
            }
        }
    }
}

TEST(MethodMatrix, OpenSystemRunsOnGenericMethodsOnly) {
    for (const M method : kAllMethods) {
        SCOPED_TRACE(method_name(method));
        PulseOptimSpec s = x_spec(method);
        s.collapse_ops = {std::sqrt(1e-4) * quantum::sigma_minus()};
        s.max_iterations = 20;
        s.max_evaluations = 400;
        if (method == M::kKrotov) {
            EXPECT_THROW(pulse_optim(s), std::invalid_argument);
            continue;
        }
        const GrapeResult res = pulse_optim(s);
        EXPECT_EQ(res.final_evolution.rows(), 4u);  // a qubit superoperator
        EXPECT_LT(res.final_fid_err, res.initial_fid_err);
        EXPECT_FALSE(res.iteration_records.empty());
    }
}

TEST(MethodMatrix, EveryMethodCountsOneSolverDispatch) {
    for (const M method : kAllMethods) {
        SCOPED_TRACE(method_name(method));
        obs::reset_for_testing();
        obs::enable_metrics("");  // memory-only counters
        PulseOptimSpec s = x_spec(method);
        s.max_iterations = 5;
        pulse_optim(s);
        EXPECT_EQ(obs::counter_value(obs::Cnt::kSolverDispatches), 1u);
    }
    obs::reset_for_testing();
}

TEST(MethodMatrix, MethodNamesArePinned) {
    // These strings are hashed into PulseStore keys: renaming one orphans
    // every persisted design made with that method.
    const char* expected[] = {"lbfgsb", "gradient_descent", "crab", "krotov"};
    for (std::size_t i = 0; i < std::size(kAllMethods); ++i) {
        EXPECT_EQ(std::string(method_name(kAllMethods[i])), expected[i]);
    }
}

}  // namespace
}  // namespace qoc::control
