#include "control/pulseoptim.hpp"

#include <gtest/gtest.h>

#include <string>

#include "control/control_problem.hpp"
#include "control/crab.hpp"
#include "linalg/kron.hpp"
#include "quantum/fidelity.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"

namespace qoc::control {
namespace {

using quantum::sigma_minus;
using quantum::sigma_x;
using quantum::sigma_y;

PulseOptimSpec x_spec() {
    PulseOptimSpec s;
    s.h_drift = Mat(2, 2);
    s.h_ctrls = {0.5 * sigma_x(), 0.5 * sigma_y()};
    s.u_target = quantum::gates::x();
    s.n_timeslots = 16;
    s.evo_time = 5.0;
    s.initial_pulse = InitialPulseType::kDrag;
    s.initial_scale = 0.5;
    return s;
}

TEST(PulseOptim, ClosedSystemXGate) {
    const auto res = pulse_optim(x_spec());
    EXPECT_LT(res.final_fid_err, 1e-8);
    EXPECT_EQ(res.final_amps.size(), 16u);
    EXPECT_EQ(res.final_evolution.rows(), 2u);  // the achieved unitary
}

TEST(PulseOptim, OpenSystemWithCollapseOps) {
    PulseOptimSpec s = x_spec();
    s.collapse_ops = {std::sqrt(1e-4) * sigma_minus()};
    const auto res = pulse_optim(s);
    EXPECT_LT(res.final_fid_err, 1e-3);
    // Final evolution is a superoperator (4x4 for a qubit).
    EXPECT_EQ(res.final_evolution.rows(), 4u);
}

TEST(PulseOptim, SeedPulseTypes) {
    for (auto type : {InitialPulseType::kDrag, InitialPulseType::kGaussian,
                      InitialPulseType::kGaussianSquare, InitialPulseType::kSine,
                      InitialPulseType::kSquare, InitialPulseType::kRandom,
                      InitialPulseType::kZero}) {
        PulseOptimSpec s = x_spec();
        s.initial_pulse = type;
        const auto amps = build_initial_amps(s);
        EXPECT_EQ(amps.size(), s.n_timeslots);
        EXPECT_EQ(amps[0].size(), 2u);
        for (const auto& slot : amps) {
            for (double a : slot) {
                EXPECT_GE(a, s.amp_lower);
                EXPECT_LE(a, s.amp_upper);
            }
        }
    }
}

TEST(PulseOptim, DragSeedPairsIq) {
    PulseOptimSpec s = x_spec();
    s.initial_pulse = InitialPulseType::kDrag;
    const auto amps = build_initial_amps(s);
    // I (ctrl 0) is symmetric and positive, Q (ctrl 1) antisymmetric.
    const std::size_t n = amps.size();
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(amps[k][0], amps[n - 1 - k][0], 1e-12);
        EXPECT_NEAR(amps[k][1], -amps[n - 1 - k][1], 1e-12);
        EXPECT_GE(amps[k][0], 0.0);
    }
}

TEST(PulseOptim, ZeroSeedStillConverges) {
    PulseOptimSpec s = x_spec();
    s.initial_pulse = InitialPulseType::kRandom;  // zero seed is a stationary
                                                  // point for some targets;
                                                  // random always works
    const auto res = pulse_optim(s);
    EXPECT_LT(res.final_fid_err, 1e-7);
}

TEST(PulseOptim, GradientDescentMethodRuns) {
    PulseOptimSpec s = x_spec();
    s.method = OptimMethod::kGradientDescent;
    s.max_iterations = 150;
    const auto res = pulse_optim(s);
    EXPECT_LT(res.final_fid_err, res.initial_fid_err);
}

TEST(PulseOptim, CrabMethodImprovesSeed) {
    PulseOptimSpec s = x_spec();
    s.method = OptimMethod::kCrab;
    s.initial_pulse = InitialPulseType::kSine;
    s.initial_scale = 0.6;
    s.max_evaluations = 4000;
    const auto res = pulse_optim(s);
    EXPECT_LT(res.final_fid_err, res.initial_fid_err);
}

TEST(PulseOptim, TargetErrStopsEarly) {
    PulseOptimSpec s = x_spec();
    s.target_fid_err = 1e-4;
    const auto res = pulse_optim(s);
    EXPECT_EQ(res.reason, optim::StopReason::kTargetReached);
    EXPECT_LE(res.final_fid_err, 1e-4);
}

TEST(PulseOptim, Validation) {
    PulseOptimSpec s = x_spec();
    s.h_ctrls.clear();
    EXPECT_THROW(pulse_optim(s), std::invalid_argument);

    s = x_spec();
    s.u_target = 2.0 * quantum::gates::x();  // not unitary
    EXPECT_THROW(pulse_optim(s), std::invalid_argument);

    s = x_spec();
    s.h_ctrls = {Mat::identity(3)};  // dim mismatch
    EXPECT_THROW(pulse_optim(s), std::invalid_argument);

    s = x_spec();
    s.collapse_ops = {sigma_minus()};
    s.subspace_isometry = quantum::qubit_isometry(2);
    EXPECT_THROW(pulse_optim(s), std::invalid_argument);
}

TEST(PulseOptim, RejectsTraceDiffWithoutCollapseOps) {
    // kTraceDiff is the open-system cost; a closed spec asking for it is
    // refused by pulse_optim itself, for any Hilbert dimension (the 4x4
    // case would otherwise pass as a 2-level superoperator's shape).
    auto expect_rejected = [](const PulseOptimSpec& s) {
        try {
            pulse_optim(s);
            ADD_FAILURE() << "closed kTraceDiff spec accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("kTraceDiff"), std::string::npos) << e.what();
        }
    };
    PulseOptimSpec s = x_spec();
    s.closed_fidelity = FidelityType::kTraceDiff;
    expect_rejected(s);

    s.h_drift = Mat(4, 4);
    s.h_ctrls = {linalg::kron(sigma_x(), sigma_x())};
    s.u_target = quantum::gates::cx();
    expect_rejected(s);

    // With collapse operators the cost is kTraceDiff whatever closed_fidelity says.
    s = x_spec();
    s.closed_fidelity = FidelityType::kTraceDiff;
    s.collapse_ops = {std::sqrt(1e-4) * sigma_minus()};
    s.max_iterations = 5;
    EXPECT_NO_THROW(pulse_optim(s));
}

TEST(Crab, DirectCallOnGrapeProblem) {
    GrapeProblem p;
    p.system.drift = Mat(2, 2);
    p.system.ctrls = {0.5 * sigma_x()};
    p.target = quantum::gates::sx();
    p.n_timeslots = 16;
    p.evo_time = 3.0;
    p.initial_amps.assign(16, {0.4});
    const auto res = crab_optimize(ControlProblem(p), {.max_evaluations = 3000});
    EXPECT_LE(res.final_fid_err, res.initial_fid_err);
    EXPECT_EQ(res.final_amps.size(), 16u);
}

}  // namespace
}  // namespace qoc::control
