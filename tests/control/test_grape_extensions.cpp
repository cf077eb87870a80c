#include <gtest/gtest.h>

#include <numbers>

#include "control/control_problem.hpp"
#include "control/grape.hpp"
#include "oracles/quantum.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"

namespace qoc::control {
namespace {

using quantum::basis_ket;
using quantum::sigma_x;
using quantum::sigma_y;
using quantum::sigma_z;
namespace g = quantum::gates;

GrapeProblem base_problem(std::size_t n_ts = 16) {
    GrapeProblem p;
    p.system.drift = linalg::Mat(2, 2);
    p.system.ctrls = {0.5 * sigma_x(), 0.5 * sigma_y()};
    p.target = g::x();
    p.n_timeslots = n_ts;
    p.evo_time = 5.0;
    p.initial_amps.assign(n_ts, {0.3, 0.05});
    return p;
}

TEST(StateTransfer, ZeroToOne) {
    GrapeProblem p = base_problem();
    p.state_transfer = GrapeProblem::StateTransfer{basis_ket(2, 0), basis_ket(2, 1)};
    const auto res = grape_lbfgsb(p, {.max_iterations = 200});
    EXPECT_LT(res.final_fid_err, 1e-9);
    // The realized unitary maps |0> to |1> (up to phase).
    const auto out = res.final_evolution * basis_ket(2, 0);
    EXPECT_NEAR(std::norm(out(1, 0)), 1.0, 1e-8);
}

TEST(StateTransfer, ZeroToPlus) {
    GrapeProblem p = base_problem();
    const auto plus = g::h() * basis_ket(2, 0);
    p.state_transfer = GrapeProblem::StateTransfer{basis_ket(2, 0), plus};
    const auto res = grape_lbfgsb(p, {.max_iterations = 200});
    EXPECT_LT(res.final_fid_err, 1e-9);
    const auto out = res.final_evolution * basis_ket(2, 0);
    EXPECT_NEAR(oracle::state_fidelity(quantum::ket_to_dm(out), plus), 1.0, 1e-8);
}

TEST(StateTransfer, EasierThanFullGate) {
    // A state transfer constrains 1 column; with a single control and short
    // time the full X gate may be unreachable while |0> -> |1> still is.
    GrapeProblem p;
    p.system.drift = 0.1 * sigma_z();
    p.system.ctrls = {0.5 * sigma_x()};
    p.target = g::x();
    p.n_timeslots = 24;
    p.evo_time = 10.0;
    p.initial_amps.assign(24, {0.4});
    const auto gate_res = grape_lbfgsb(p, {.max_iterations = 300});

    p.state_transfer = GrapeProblem::StateTransfer{basis_ket(2, 0), basis_ket(2, 1)};
    const auto st_res = grape_lbfgsb(p, {.max_iterations = 300});
    EXPECT_LT(st_res.final_fid_err, 1e-8);
    EXPECT_LE(st_res.final_fid_err, gate_res.final_fid_err + 1e-12);
}

TEST(StateTransfer, Validation) {
    GrapeProblem p = base_problem();
    p.state_transfer = GrapeProblem::StateTransfer{basis_ket(3, 0), basis_ket(2, 1)};
    EXPECT_THROW(grape_lbfgsb(p), std::invalid_argument);
    p = base_problem();
    p.state_transfer = GrapeProblem::StateTransfer{basis_ket(2, 0), basis_ket(2, 1)};
    p.fidelity = FidelityType::kSu;
    EXPECT_THROW(grape_lbfgsb(p), std::invalid_argument);
}

TEST(RobustGrape, SingleMemberMatchesPlain) {
    GrapeProblem p = base_problem();
    const auto plain = grape_lbfgsb(p, {.max_iterations = 150});
    const auto robust = grape_robust(p, {linalg::Mat(2, 2)}, {1.0}, {.max_iterations = 150});
    EXPECT_NEAR(robust.final_fid_err, plain.final_fid_err, 1e-8);
    ASSERT_EQ(robust.member_errors.size(), 1u);
}

TEST(RobustGrape, RobustPulseBeatsNominalUnderDetuning) {
    // Optimize (a) on the nominal model only, (b) over a +-delta detuning
    // ensemble; evaluate both on the detuned members.  The robust pulse must
    // do better off-nominal.
    const double delta = 0.06;
    GrapeProblem p = base_problem(24);
    p.evo_time = 14.0;
    p.initial_amps.assign(24, {0.2, 0.05});

    const auto nominal = grape_lbfgsb(p, {.max_iterations = 300});

    const std::vector<linalg::Mat> ensemble = {
        (-delta / 2.0) * sigma_z(), linalg::Mat(2, 2), (delta / 2.0) * sigma_z()};
    const auto robust = grape_robust(p, ensemble, {1.0, 1.0, 1.0}, {.max_iterations = 300});

    // Evaluate both pulses on the detuned problems.
    auto eval_on = [&](const control::ControlAmplitudes& amps, const linalg::Mat& drift_extra) {
        GrapeProblem q = p;
        q.system.drift = p.system.drift + drift_extra;
        return ControlProblem(q).fid_err(amps);
    };
    const double nominal_off = 0.5 * (eval_on(nominal.final_amps, ensemble[0]) +
                                      eval_on(nominal.final_amps, ensemble[2]));
    const double robust_off = 0.5 * (eval_on(robust.final_amps, ensemble[0]) +
                                     eval_on(robust.final_amps, ensemble[2]));
    EXPECT_LT(robust_off, nominal_off);
    EXPECT_LT(robust_off, 1e-3);
}

TEST(RobustGrape, MemberErrorsReported) {
    GrapeProblem p = base_problem();
    const std::vector<linalg::Mat> ensemble = {(-0.05) * sigma_z(), (0.05) * sigma_z()};
    const auto res = grape_robust(p, ensemble, {1.0, 1.0}, {.max_iterations = 200});
    ASSERT_EQ(res.member_errors.size(), 2u);
    const double mean = 0.5 * (res.member_errors[0] + res.member_errors[1]);
    EXPECT_NEAR(res.final_fid_err, mean, 1e-10);
}

TEST(RobustGrape, Validation) {
    GrapeProblem p = base_problem();
    EXPECT_THROW(grape_robust(p, {}, {}), std::invalid_argument);
    EXPECT_THROW(grape_robust(p, {linalg::Mat(2, 2)}, {1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(grape_robust(p, {linalg::Mat(2, 2)}, {0.0}), std::invalid_argument);
    p.fidelity = FidelityType::kTraceDiff;
    EXPECT_THROW(grape_robust(p, {linalg::Mat(2, 2)}, {1.0}), std::invalid_argument);
}

TEST(EnergyPenalty, ReducesPulseEnergy) {
    GrapeProblem p = base_problem(24);
    p.evo_time = 14.0;
    p.initial_amps.assign(24, {0.25, 0.1});
    const auto loose = grape_lbfgsb(p, {.max_iterations = 300});
    p.energy_penalty = 0.05;
    const auto tight = grape_lbfgsb(p, {.max_iterations = 300});

    auto energy = [](const control::ControlAmplitudes& amps) {
        double e = 0.0;
        for (const auto& slot : amps)
            for (double a : slot) e += a * a;
        return e;
    };
    EXPECT_LT(energy(tight.final_amps), energy(loose.final_amps));
    // Fidelity stays high despite the regularizer.
    EXPECT_LT(tight.final_fid_err, 1e-4);
}

}  // namespace
}  // namespace qoc::control
