/// iLQR trajectory optimizer: paper-benchmark gate designs (X, sqrt(X), H)
/// must reach the same closed-system fidelity L-BFGS-B GRAPE does, controls
/// must respect the amplitude box, and the open-system guard must fire.
/// Also covers the two new OptimMethods (kIlqr, kCgDescent) end to end
/// through the pulse_optim front end.

#include "control/ilqr.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "control/control_problem.hpp"
#include "control/pulseoptim.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"

namespace qoc::control {
namespace {

using quantum::sigma_minus;
using quantum::sigma_x;
using quantum::sigma_y;

GrapeProblem gate_problem(const Mat& target) {
    GrapeProblem p;
    p.system.drift = Mat(2, 2);
    p.system.ctrls = {0.5 * sigma_x(), 0.5 * sigma_y()};
    p.target = target;
    p.n_timeslots = 16;
    p.evo_time = 5.0;
    p.fidelity = FidelityType::kPsu;
    p.initial_amps.resize(16);
    for (std::size_t k = 0; k < 16; ++k) {
        const double t = static_cast<double>(k) / 16.0;
        p.initial_amps[k] = {0.4 * std::sin(3.141592653589793 * t), 0.1 * (0.5 - t)};
    }
    return p;
}

TEST(Ilqr, MatchesLbfgsbOnPaperGates) {
    // The paper's closed-system single-qubit benchmarks: both optimizers
    // must drive the design error to (numerical) zero, i.e. agree within
    // 1e-6 on the achieved fidelity.
    struct Case {
        const char* name;
        Mat target;
    };
    const Case cases[] = {
        {"x", quantum::gates::x()},
        {"sx", quantum::gates::sx()},
        {"h", quantum::gates::h()},
    };
    for (const Case& c : cases) {
        const GrapeProblem p = gate_problem(c.target);
        const ControlProblem cp(p, /*open_system=*/false);

        const GrapeResult ref = grape_solve(cp, "lbfgsb", {.max_iterations = 300});
        const GrapeResult got = ilqr_optimize(cp, {.max_iterations = 100});

        EXPECT_LT(ref.final_fid_err, 1e-8) << c.name;
        EXPECT_NEAR(got.final_fid_err, ref.final_fid_err, 1e-6) << c.name;
        EXPECT_LT(got.final_fid_err, got.initial_fid_err) << c.name;
        EXPECT_GT(got.iterations, 0) << c.name;
        EXPECT_FALSE(got.iteration_records.empty()) << c.name;
    }
}

TEST(Ilqr, RespectsAmplitudeBox) {
    GrapeProblem p = gate_problem(quantum::gates::x());
    p.amp_lower = -0.25;
    p.amp_upper = 0.25;  // tight enough that the solution rides the bound
    const ControlProblem cp(p, false);
    const GrapeResult r = ilqr_optimize(cp, {.max_iterations = 60});
    for (const auto& slot : r.final_amps) {
        for (double a : slot) {
            EXPECT_GE(a, p.amp_lower - 1e-12);
            EXPECT_LE(a, p.amp_upper + 1e-12);
        }
    }
    EXPECT_LT(r.final_fid_err, r.initial_fid_err);
}

TEST(Ilqr, SuFidelityConverges) {
    // kSu (global-phase-sensitive) uses the zero-Hessian terminal expansion;
    // make sure that path also optimizes.  The target must live in SU(2):
    // traceless-Hamiltonian evolutions never leave it, so plain X (det -1)
    // keeps Re Tr(X^dag U) = 0 and the kSu error pinned at exactly 1.
    GrapeProblem p = gate_problem(quantum::gates::rx(3.141592653589793));
    p.fidelity = FidelityType::kSu;
    const ControlProblem cp(p, false);
    const GrapeResult r = ilqr_optimize(cp, {.max_iterations = 150});
    EXPECT_LT(r.final_fid_err, 1e-6);
}

TEST(Ilqr, RejectsOpenSystems) {
    GrapeProblem p;
    p.system.drift = quantum::liouvillian(Mat(2, 2), {0.05 * sigma_minus()});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * sigma_x())};
    p.target = quantum::unitary_superop(quantum::gates::x());
    p.fidelity = FidelityType::kTraceDiff;
    p.n_timeslots = 8;
    p.evo_time = 2.4;
    p.initial_amps.assign(8, {0.3});
    const ControlProblem cp(p, /*open_system=*/true);
    EXPECT_THROW(ilqr_optimize(cp), std::invalid_argument);
}

PulseOptimSpec method_spec(OptimMethod method) {
    PulseOptimSpec s;
    s.h_drift = Mat(2, 2);
    s.h_ctrls = {0.5 * sigma_x(), 0.5 * sigma_y()};
    s.u_target = quantum::gates::x();
    s.n_timeslots = 16;
    s.evo_time = 5.0;
    s.method = method;
    return s;
}

TEST(Ilqr, PulseOptimDispatch) {
    const auto res = pulse_optim(method_spec(OptimMethod::kIlqr));
    EXPECT_LT(res.final_fid_err, 1e-8);
    EXPECT_EQ(res.final_amps.size(), 16u);

    // Closed-only guard through the front end.
    PulseOptimSpec open = method_spec(OptimMethod::kIlqr);
    open.collapse_ops = {std::sqrt(1e-4) * sigma_minus()};
    EXPECT_THROW(pulse_optim(open), std::invalid_argument);
}

TEST(Ilqr, CgDescentPulseOptimDispatch) {
    const auto res = pulse_optim(method_spec(OptimMethod::kCgDescent));
    EXPECT_LT(res.final_fid_err, 1e-8);

    // CG-descent is a generic bound-projected solver: open systems work.
    PulseOptimSpec open = method_spec(OptimMethod::kCgDescent);
    open.collapse_ops = {std::sqrt(1e-4) * sigma_minus()};
    open.max_iterations = 60;
    const auto open_res = pulse_optim(open);
    EXPECT_EQ(open_res.final_evolution.rows(), 4u);  // a qubit superoperator
    EXPECT_LT(open_res.final_fid_err, 1e-3);
}

}  // namespace
}  // namespace qoc::control
