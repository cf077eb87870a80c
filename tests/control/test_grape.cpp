#include "control/grape.hpp"

#include <gtest/gtest.h>

#include <numbers>

#include "control/control_problem.hpp"
#include "control/pulse_shapes.hpp"
#include "optim/gradient_check.hpp"
#include "quantum/fidelity.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"

namespace qoc::control {
namespace {

using quantum::annihilation;
using quantum::drive_x;
using quantum::drive_y;
using quantum::duffing_drift;
using quantum::qubit_isometry;
using quantum::sigma_minus;
using quantum::sigma_x;
using quantum::sigma_y;
using quantum::sigma_z;

GrapeProblem x_gate_problem(std::size_t n_ts = 12) {
    GrapeProblem p;
    p.system.drift = Mat(2, 2);
    p.system.ctrls = {0.5 * sigma_x(), 0.5 * sigma_y()};
    p.target = quantum::gates::x();
    p.n_timeslots = n_ts;
    p.evo_time = 4.0;
    p.fidelity = FidelityType::kPsu;
    p.initial_amps.assign(n_ts, {0.4, 0.1});
    return p;
}

/// Wraps a GRAPE problem as an optim::Objective for the FD gradient checker.
optim::Objective as_objective(const GrapeProblem& prob) {
    return [prob](const std::vector<double>& x, std::vector<double>& g) {
        // Cost only: the analytic gradient is tested indirectly below via
        // optimizer convergence AND directly through a one-step descent probe.
        (void)g;
        const ControlProblem cp(prob);
        return cp.fid_err(cp.unflatten(x));
    };
}

TEST(GrapeClosed, OptimizesXGateToHighFidelity) {
    const auto res = grape_lbfgsb(x_gate_problem(), {.max_iterations = 200});
    EXPECT_LT(res.final_fid_err, 1e-8);
    EXPECT_LT(res.final_fid_err, res.initial_fid_err);
    EXPECT_NEAR(quantum::fidelity_psu(quantum::gates::x(), res.final_evolution), 1.0, 1e-7);
}

TEST(GrapeClosed, OptimizesHadamard) {
    GrapeProblem p = x_gate_problem(16);
    p.target = quantum::gates::h();
    const auto res = grape_lbfgsb(p, {.max_iterations = 300});
    EXPECT_LT(res.final_fid_err, 1e-8);
}

TEST(GrapeClosed, OptimizesSxGateSingleControl) {
    GrapeProblem p;
    p.system.drift = Mat(2, 2);
    p.system.ctrls = {0.5 * sigma_x()};
    p.target = quantum::gates::sx();
    p.n_timeslots = 10;
    p.evo_time = 3.0;
    p.initial_amps.assign(10, {0.3});
    const auto res = grape_lbfgsb(p, {.max_iterations = 200});
    EXPECT_LT(res.final_fid_err, 1e-9);
}

TEST(GrapeClosed, RespectsAmplitudeBounds) {
    GrapeProblem p = x_gate_problem();
    // Tight bounds also require a longer pulse: the max rotation angle is
    // |u|_max * evo_time and must exceed pi.
    p.evo_time = 10.0;
    p.amp_lower = -0.5;
    p.amp_upper = 0.5;
    const auto res = grape_lbfgsb(p, {.max_iterations = 200});
    for (const auto& slot : res.final_amps) {
        for (double a : slot) {
            EXPECT_GE(a, -0.5 - 1e-12);
            EXPECT_LE(a, 0.5 + 1e-12);
        }
    }
    EXPECT_LT(res.final_fid_err, 1e-7);
}

TEST(GrapeClosed, GradientMatchesFiniteDifference) {
    // The analytic gradient is exercised inside L-BFGS-B; validate it by a
    // finite-difference probe on a descent direction: one gradient step from
    // the seed must reduce the error for a small learning rate.
    GrapeProblem p = x_gate_problem(8);
    const auto gd = grape_gradient_descent(p, {.max_iterations = 2, .step = 0.05});
    ASSERT_GE(gd.iteration_records.size(), 2u);
    EXPECT_LT(gd.iteration_records[1].cost, gd.iteration_records[0].cost);
}

TEST(GrapeClosed, GradientAgainstNumericDerivative) {
    // Full FD check of the objective used by the optimizer: compare the
    // decrease predicted by the analytic gradient (via one GD step) with the
    // FD directional derivative of the fidelity error.
    GrapeProblem p = x_gate_problem(6);
    const std::size_t n = p.n_timeslots * p.system.ctrls.size();
    std::vector<double> x0(n);
    for (std::size_t k = 0; k < p.n_timeslots; ++k) {
        x0[2 * k] = 0.4;
        x0[2 * k + 1] = 0.1;
    }
    // Analytic gradient extracted from a single tiny GD step:
    // u1 = u0 - lr * g  =>  g = (u0 - u1) / lr (no clipping active here).
    const double lr = 1e-7;
    const auto gd = grape_gradient_descent(p, {.max_iterations = 1, .step = lr});
    std::vector<double> analytic(n);
    for (std::size_t k = 0; k < p.n_timeslots; ++k)
        for (std::size_t j = 0; j < 2; ++j)
            analytic[2 * k + j] = (x0[2 * k + j] - gd.final_amps[k][j]) / lr;

    auto obj = as_objective(p);
    std::vector<double> dummy;
    const double h = 1e-6;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> xp = x0, xm = x0;
        xp[i] += h;
        xm[i] -= h;
        const double fd = (obj(xp, dummy) - obj(xm, dummy)) / (2.0 * h);
        EXPECT_NEAR(analytic[i], fd, 1e-5) << "param " << i;
    }
}

TEST(GrapeClosed, SubspaceFidelityThreeLevelX) {
    // 3-level Duffing transmon, X on the qubit subspace.
    const std::size_t d = 3;
    GrapeProblem p;
    p.system.drift = duffing_drift(d, 0.0, -2.0 * std::numbers::pi * 0.33);
    p.system.ctrls = {0.5 * drive_x(d), 0.5 * drive_y(d)};
    p.target = quantum::gates::x();
    p.subspace_isometry = qubit_isometry(d);
    p.n_timeslots = 20;
    p.evo_time = 12.0;
    p.initial_amps.assign(20, {0.25, 0.0});
    const auto res = grape_lbfgsb(p, {.max_iterations = 500});
    EXPECT_LT(res.final_fid_err, 1e-6);
    EXPECT_NEAR(quantum::fidelity_psu_subspace(quantum::gates::x(), res.final_evolution,
                                               qubit_isometry(d)),
                1.0, 1e-5);
}

TEST(GrapeOpen, LindbladXGate) {
    // Open-system GRAPE with weak T1: should still find a high-quality X.
    const double gamma = 1e-4;
    GrapeProblem p;
    p.system.drift = quantum::liouvillian(Mat(2, 2), {std::sqrt(gamma) * sigma_minus()});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * sigma_x()),
                      quantum::liouvillian_hamiltonian(0.5 * sigma_y())};
    p.target = quantum::unitary_superop(quantum::gates::x());
    p.fidelity = FidelityType::kTraceDiff;
    p.n_timeslots = 12;
    p.evo_time = 4.0;
    p.initial_amps.assign(12, {0.4, 0.1});
    const auto res = grape_lbfgsb(p, {.max_iterations = 300});
    EXPECT_LT(res.final_fid_err, 1e-3);
    EXPECT_LT(res.final_fid_err, res.initial_fid_err / 10.0);
}

TEST(GrapeOpen, GradientDescentProbeDecreases) {
    const double gamma = 1e-3;
    GrapeProblem p;
    p.system.drift = quantum::liouvillian(0.1 * sigma_z(), {std::sqrt(gamma) * sigma_minus()});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * sigma_x())};
    p.target = quantum::unitary_superop(quantum::gates::sx());
    p.fidelity = FidelityType::kTraceDiff;
    p.n_timeslots = 8;
    p.evo_time = 3.0;
    p.initial_amps.assign(8, {0.3});
    const auto gd = grape_gradient_descent(p, {.max_iterations = 5, .step = 0.2});
    EXPECT_LT(gd.iteration_records.back().cost, gd.iteration_records.front().cost);
}

TEST(GrapeValidation, RejectsBadSpecs) {
    GrapeProblem p = x_gate_problem();
    p.n_timeslots = 0;
    EXPECT_THROW(grape_lbfgsb(p), std::invalid_argument);

    p = x_gate_problem();
    p.evo_time = -1.0;
    EXPECT_THROW(grape_lbfgsb(p), std::invalid_argument);

    p = x_gate_problem();
    p.initial_amps.pop_back();
    EXPECT_THROW(grape_lbfgsb(p), std::invalid_argument);

    // kTraceDiff on a 2x2 generator: read as a superoperator, whose side
    // is not a perfect square.
    p = x_gate_problem();
    p.fidelity = FidelityType::kTraceDiff;
    EXPECT_THROW(grape_lbfgsb(p), std::invalid_argument);
}

TEST(GrapeClosed, SuFidelityAlsoConverges) {
    // SU is phase sensitive, and traceless controls only reach SU(2)
    // (det = +1), so the target must be the SU(2) representative of X:
    // RX(pi) = -iX.  GRAPE must then match it *including* the phase.
    GrapeProblem p = x_gate_problem();
    p.target = quantum::gates::rx(std::numbers::pi);
    p.fidelity = FidelityType::kSu;
    const auto res = grape_lbfgsb(p, {.max_iterations = 300});
    EXPECT_LT(res.final_fid_err, 1e-7);
    EXPECT_TRUE(res.final_evolution.approx_equal(quantum::gates::rx(std::numbers::pi), 1e-3));
}

TEST(GrapeClosed, HistoryMonotoneForLbfgsb) {
    const auto res = grape_lbfgsb(x_gate_problem(), {.max_iterations = 100});
    const auto& recs = res.iteration_records;
    for (std::size_t i = 1; i < recs.size(); ++i) {
        EXPECT_LE(recs[i].cost, recs[i - 1].cost + 1e-12);
    }
}

/// Sweep over timeslot counts: more slots should never make the achievable
/// error dramatically worse (property of the parameterization).
class GrapeTimeslotSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GrapeTimeslotSweep, ConvergesForVariousResolutions) {
    const std::size_t n_ts = GetParam();
    GrapeProblem p = x_gate_problem(n_ts);
    p.initial_amps.assign(n_ts, {0.4, 0.1});
    const auto res = grape_lbfgsb(p, {.max_iterations = 300});
    EXPECT_LT(res.final_fid_err, 1e-6) << "n_ts=" << n_ts;
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GrapeTimeslotSweep,
                         ::testing::Values(4, 8, 16, 32, 64));

}  // namespace
}  // namespace qoc::control
