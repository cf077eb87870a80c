#include "control/krotov.hpp"

#include <gtest/gtest.h>

#include <numbers>

#include "quantum/fidelity.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"

namespace qoc::control {
namespace {

using quantum::sigma_x;
using quantum::sigma_y;
namespace g = quantum::gates;

GrapeProblem x_problem(std::size_t n_ts = 16) {
    GrapeProblem p;
    p.system.drift = linalg::Mat(2, 2);
    p.system.ctrls = {0.5 * sigma_x(), 0.5 * sigma_y()};
    p.target = g::x();
    p.n_timeslots = n_ts;
    p.evo_time = 5.0;
    p.initial_amps.assign(n_ts, {0.3, 0.05});
    return p;
}

TEST(Krotov, ConvergesToXGate) {
    const auto res = krotov_unitary(x_problem(), {.max_iterations = 400}, {.lambda = 0.5});
    EXPECT_LT(res.final_fid_err, 1e-6);
    EXPECT_NEAR(quantum::fidelity_psu(g::x(), res.final_evolution), 1.0, 1e-5);
}

TEST(Krotov, MonotonicConvergence) {
    // Krotov's defining property: the functional improves every iteration.
    const auto res = krotov_unitary(x_problem(), {.max_iterations = 100}, {.lambda = 1.0});
    const auto& recs = res.iteration_records;
    ASSERT_GT(recs.size(), 3u);
    EXPECT_LE(recs[0].cost, res.initial_fid_err + 1e-12);
    for (std::size_t i = 1; i < recs.size(); ++i) {
        EXPECT_LE(recs[i].cost, recs[i - 1].cost + 1e-12) << "iter " << i;
    }
}

TEST(Krotov, LargerLambdaSmallerSteps) {
    const auto fast = krotov_unitary(x_problem(), {.max_iterations = 40}, {.lambda = 0.5});
    const auto slow = krotov_unitary(x_problem(), {.max_iterations = 40}, {.lambda = 20.0});
    EXPECT_LT(fast.final_fid_err, slow.final_fid_err);
}

TEST(Krotov, RespectsAmplitudeBounds) {
    GrapeProblem p = x_problem();
    p.evo_time = 12.0;
    p.amp_lower = -0.4;
    p.amp_upper = 0.4;
    p.initial_amps.assign(p.n_timeslots, {0.25, 0.0});
    const auto res = krotov_unitary(p, {.max_iterations = 300}, {.lambda = 0.5});
    for (const auto& slot : res.final_amps) {
        for (double a : slot) {
            EXPECT_GE(a, -0.4 - 1e-12);
            EXPECT_LE(a, 0.4 + 1e-12);
        }
    }
    EXPECT_LT(res.final_fid_err, 1e-5);
}

TEST(Krotov, HadamardTarget) {
    GrapeProblem p = x_problem(24);
    p.target = g::h();
    p.initial_amps.assign(24, {0.25, 0.1});
    const auto res = krotov_unitary(p, {.max_iterations = 500}, {.lambda = 0.5});
    EXPECT_LT(res.final_fid_err, 1e-5);
}

TEST(Krotov, SubspaceThreeLevel) {
    GrapeProblem p;
    p.system.drift = quantum::duffing_drift(3, 0.0, -2.0);
    p.system.ctrls = {0.5 * quantum::drive_x(3), 0.5 * quantum::drive_y(3)};
    p.target = g::x();
    p.subspace_isometry = quantum::qubit_isometry(3);
    p.n_timeslots = 24;
    p.evo_time = 20.0;
    p.initial_amps.assign(24, {0.15, 0.0});
    const auto res = krotov_unitary(p, {.max_iterations = 500}, {.lambda = 0.8});
    EXPECT_LT(res.final_fid_err, 1e-4);
}

TEST(Krotov, TargetStopsEarly) {
    const auto res =
        krotov_unitary(x_problem(), {.max_iterations = 1000, .target_f = 1e-3}, {.lambda = 0.5});
    EXPECT_EQ(res.reason, optim::StopReason::kTargetReached);
    EXPECT_LE(res.final_fid_err, 1e-3);
}

TEST(Krotov, Validation) {
    GrapeProblem p = x_problem();
    EXPECT_THROW(krotov_unitary(p, {}, {.lambda = 0.0}), std::invalid_argument);
    p.fidelity = FidelityType::kTraceDiff;
    EXPECT_THROW(krotov_unitary(p), std::invalid_argument);
    p = x_problem();
    p.n_timeslots = 0;
    EXPECT_THROW(krotov_unitary(p), std::invalid_argument);
}

TEST(Krotov, ComparableToGrapeOnSameProblem) {
    // Both methods should reach high fidelity on this easy problem; GRAPE
    // (2nd order) typically in fewer iterations.
    const auto kr = krotov_unitary(x_problem(), {.max_iterations = 500}, {.lambda = 0.5});
    const auto gr = grape_lbfgsb(x_problem(), {.max_iterations = 200});
    EXPECT_LT(kr.final_fid_err, 1e-6);
    EXPECT_LT(gr.final_fid_err, 1e-8);
    EXPECT_LE(gr.iterations, kr.iterations);
}

}  // namespace
}  // namespace qoc::control
