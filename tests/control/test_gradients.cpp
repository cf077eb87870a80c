/// Systematic finite-difference verification of every GRAPE gradient path
/// through `ControlProblem::objective`, plus an independent
/// product-rule reference built from one augmented-block `expm_frechet` per
/// slot and control.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>

#include "control/control_problem.hpp"
#include "control/grape.hpp"
#include "linalg/expm.hpp"
#include "linalg/kron.hpp"
#include "optim/gradient_check.hpp"
#include "oracles/propagators.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::control {
namespace {

using linalg::cplx;
using linalg::Mat;
using quantum::op_on_qubit;
using quantum::sigma_minus;
using quantum::sigma_x;
using quantum::sigma_y;
namespace g = quantum::gates;

optim::Objective wrap(const GrapeProblem& prob) {
    auto cp = std::make_shared<const ControlProblem>(prob);
    return [cp](const std::vector<double>& x, std::vector<double>& grad) {
        return cp->objective(x, grad);
    };
}

std::vector<double> test_point(std::size_t n) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = 0.25 * std::sin(1.7 * static_cast<double>(i) + 0.3);
    }
    return x;
}

/// Gradient by the product rule, independent of the evaluator: every
/// dU/du_kj = B_k L(A_k, E_j) F_{k-1} with L from the Van Loan augmented
/// block, one call per slot and control.  Covers kPsu (plain or subspace
/// target) and kTraceDiff.
std::vector<double> reference_gradient(const GrapeProblem& p, const std::vector<double>& x) {
    const std::size_t n_ts = p.n_timeslots;
    const std::size_t nc = p.system.ctrls.size();
    const std::size_t dim = p.system.drift.rows();
    const bool open = p.fidelity == FidelityType::kTraceDiff;
    const double dt = p.evo_time / static_cast<double>(n_ts);
    const cplx scale = open ? cplx{dt, 0.0} : cplx{0.0, -dt};

    std::vector<Mat> a(n_ts), fwd(n_ts), bwd(n_ts);
    for (std::size_t k = 0; k < n_ts; ++k) {
        Mat h = p.system.drift;
        for (std::size_t j = 0; j < nc; ++j) h += x[k * nc + j] * p.system.ctrls[j];
        a[k] = scale * h;
        const Mat prop = linalg::expm(a[k]);
        fwd[k] = (k == 0) ? prop : prop * fwd[k - 1];
    }
    bwd[n_ts - 1] = Mat::identity(dim);
    for (std::size_t k = n_ts - 1; k-- > 0;) bwd[k] = bwd[k + 1] * linalg::expm(a[k + 1]);
    const Mat& u = fwd.back();

    Mat m = p.target;
    if (p.subspace_isometry) m = *p.subspace_isometry * p.target * p.subspace_isometry->adjoint();
    const double d = static_cast<double>(p.target.rows());
    const cplx g = linalg::hs_inner(m, u);

    std::vector<double> grad(n_ts * nc);
    for (std::size_t k = 0; k < n_ts; ++k) {
        for (std::size_t j = 0; j < nc; ++j) {
            const Mat dp = oracle::expm_frechet(a[k], scale * p.system.ctrls[j]).second;
            const Mat du = (k == 0) ? bwd[k] * dp : bwd[k] * dp * fwd[k - 1];
            grad[k * nc + j] =
                open ? -linalg::hs_inner(p.target - u, du).real() / static_cast<double>(dim)
                     : -2.0 * (std::conj(g) * linalg::hs_inner(m, du)).real() / (d * d);
        }
    }
    return grad;
}

/// max |got - ref| over max |ref|.
double max_rel_diff(const std::vector<double>& got, const std::vector<double>& ref) {
    double diff = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        diff = std::max(diff, std::abs(got[i] - ref[i]));
        scale = std::max(scale, std::abs(ref[i]));
    }
    return diff / scale;
}

void expect_matches_reference(const GrapeProblem& p, const std::vector<double>& x) {
    std::vector<double> grad(x.size());
    wrap(p)(x, grad);
    EXPECT_LT(max_rel_diff(grad, reference_gradient(p, x)), 1e-10);
}

/// The `design_cx_gate` shape: 4x4, four controls (D1 I/Q and the two
/// cross-resonance quadratures with their IX / crosstalk admixtures),
/// per-control bounds, the ZX90-based pulse target.
GrapeProblem cx_shaped_problem() {
    const Mat n_op{{0.0, 0.0}, {0.0, 1.0}};
    const Mat zx = op_on_qubit(quantum::sigma_z(), 0, 2) * op_on_qubit(sigma_x(), 1, 2);
    const Mat zy = op_on_qubit(quantum::sigma_z(), 0, 2) * op_on_qubit(sigma_y(), 1, 2);
    GrapeProblem p;
    p.system.drift = 0.02 * (op_on_qubit(n_op, 0, 2) * op_on_qubit(n_op, 1, 2)) +
                     0.06 * op_on_qubit(quantum::sigma_z(), 0, 2) +
                     0.05 * op_on_qubit(quantum::sigma_z(), 1, 2);
    p.system.ctrls = {
        0.5 * op_on_qubit(sigma_x(), 1, 2),
        0.5 * op_on_qubit(sigma_y(), 1, 2),
        0.5 * (0.4 * zx + 0.1 * op_on_qubit(sigma_x(), 1, 2) + 0.05 * op_on_qubit(sigma_x(), 0, 2)),
        0.5 * (0.4 * zy + 0.1 * op_on_qubit(sigma_y(), 1, 2) + 0.05 * op_on_qubit(sigma_y(), 0, 2)),
    };
    p.target = g::zx90() * linalg::kron(Mat::identity(2), g::rx(-std::numbers::pi / 2.0));
    p.amp_lower_per_ctrl = {-0.3, -0.3, -0.7, -0.7};
    p.amp_upper_per_ctrl = {0.3, 0.3, 0.7, 0.7};
    p.n_timeslots = 6;
    p.evo_time = 8.0;
    p.initial_amps.assign(6, {0.0, 0.0, 0.0, 0.0});
    return p;
}

/// The open 3-level design shape (9x9 Lindbladian, two controls) with
/// slots long enough that every slot exponent takes Pade 13 with at least
/// two squarings.
GrapeProblem open_three_level_long_slots() {
    GrapeProblem p;
    p.system.drift = quantum::liouvillian(
        quantum::duffing_drift(3, 0.0, -2.0),
        {0.1 * quantum::annihilation(3), 0.05 * quantum::number_op(3)});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * quantum::drive_x(3)),
                      quantum::liouvillian_hamiltonian(0.5 * quantum::drive_y(3))};
    Mat x3(3, 3);  // X on the qubit subspace, identity on leakage
    x3(0, 1) = 1.0;
    x3(1, 0) = 1.0;
    x3(2, 2) = 1.0;
    p.target = quantum::unitary_superop(x3);
    p.fidelity = FidelityType::kTraceDiff;
    p.n_timeslots = 4;
    p.evo_time = 48.0;
    p.initial_amps.assign(4, {0.0, 0.0});
    return p;
}

TEST(GradientCheck, ClosedPsu) {
    GrapeProblem p;
    p.system.drift = 0.2 * quantum::sigma_z();
    p.system.ctrls = {0.5 * sigma_x(), 0.5 * sigma_y()};
    p.target = g::h();
    p.n_timeslots = 8;
    p.evo_time = 4.0;
    p.initial_amps.assign(8, {0.0, 0.0});
    const auto res = optim::check_gradient(wrap(p), test_point(16));
    EXPECT_LT(res.max_rel_error, 1e-6);
}

TEST(GradientCheck, ClosedSu) {
    GrapeProblem p;
    p.system.drift = linalg::Mat(2, 2);
    p.system.ctrls = {0.5 * sigma_x()};
    p.target = g::rx(1.0);
    p.fidelity = FidelityType::kSu;
    p.n_timeslots = 6;
    p.evo_time = 3.0;
    p.initial_amps.assign(6, {0.0});
    const auto res = optim::check_gradient(wrap(p), test_point(6));
    EXPECT_LT(res.max_rel_error, 1e-6);
}

TEST(GradientCheck, ClosedSubspaceThreeLevel) {
    GrapeProblem p;
    p.system.drift = quantum::duffing_drift(3, 0.0, -2.0);
    p.system.ctrls = {0.5 * quantum::drive_x(3), 0.5 * quantum::drive_y(3)};
    p.target = g::x();
    p.subspace_isometry = quantum::qubit_isometry(3);
    p.n_timeslots = 6;
    p.evo_time = 6.0;
    p.initial_amps.assign(6, {0.0, 0.0});
    const auto res = optim::check_gradient(wrap(p), test_point(12));
    EXPECT_LT(res.max_rel_error, 1e-5);
}

TEST(GradientCheck, OpenTraceDiff) {
    GrapeProblem p;
    p.system.drift = quantum::liouvillian(0.1 * quantum::sigma_z(),
                                          {std::sqrt(0.01) * sigma_minus()});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * sigma_x()),
                      quantum::liouvillian_hamiltonian(0.5 * sigma_y())};
    p.target = quantum::unitary_superop(g::x());
    p.fidelity = FidelityType::kTraceDiff;
    p.n_timeslots = 6;
    p.evo_time = 4.0;
    p.initial_amps.assign(6, {0.0, 0.0});
    const auto res = optim::check_gradient(wrap(p), test_point(12));
    EXPECT_LT(res.max_rel_error, 1e-5);
}

TEST(GradientCheck, StateTransfer) {
    GrapeProblem p;
    p.system.drift = linalg::Mat(2, 2);
    p.system.ctrls = {0.5 * sigma_x(), 0.5 * sigma_y()};
    p.target = g::x();  // ignored
    p.state_transfer =
        GrapeProblem::StateTransfer{quantum::basis_ket(2, 0), quantum::basis_ket(2, 1)};
    p.n_timeslots = 8;
    p.evo_time = 4.0;
    p.initial_amps.assign(8, {0.0, 0.0});
    const auto res = optim::check_gradient(wrap(p), test_point(16));
    EXPECT_LT(res.max_rel_error, 1e-6);
}

TEST(GradientCheck, EnergyPenaltyTerm) {
    GrapeProblem p;
    p.system.drift = linalg::Mat(2, 2);
    p.system.ctrls = {0.5 * sigma_x()};
    p.target = g::rx(1.3);
    p.energy_penalty = 0.2;
    p.n_timeslots = 6;
    p.evo_time = 3.0;
    p.initial_amps.assign(6, {0.0});
    const auto res = optim::check_gradient(wrap(p), test_point(6));
    EXPECT_LT(res.max_rel_error, 1e-6);
}

TEST(GradientCheck, CxShapedFourControls) {
    const GrapeProblem p = cx_shaped_problem();
    const auto res = optim::check_gradient(wrap(p), test_point(24));
    EXPECT_LT(res.max_rel_error, 1e-6);
}

TEST(GradientCheck, OpenThreeLevelPade13Squarings) {
    const GrapeProblem p = open_three_level_long_slots();
    const std::vector<double> x = test_point(8);
    // Pade 13 needs ||A||_1 > theta_13 = 5.37; two squarings need twice that.
    const ControlProblem cp(p);
    for (std::size_t k = 0; k < p.n_timeslots; ++k) {
        const std::vector<double> amps(x.begin() + 2 * k, x.begin() + 2 * k + 2);
        EXPECT_GT(cp.slot_exponent(amps).norm_1(), 2.0 * 5.371920351148152) << "slot " << k;
    }
    const auto res = optim::check_gradient(wrap(p), x);
    EXPECT_LT(res.max_rel_error, 1e-5);
}

TEST(GradientReference, AdjointMatchesPerDirectionFrechet) {
    expect_matches_reference(cx_shaped_problem(), test_point(24));
    expect_matches_reference(open_three_level_long_slots(), test_point(8));

    GrapeProblem sub;
    sub.system.drift = quantum::duffing_drift(3, 0.0, -2.0);
    sub.system.ctrls = {0.5 * quantum::drive_x(3), 0.5 * quantum::drive_y(3)};
    sub.target = g::x();
    sub.subspace_isometry = quantum::qubit_isometry(3);
    sub.n_timeslots = 6;
    sub.evo_time = 6.0;
    sub.initial_amps.assign(6, {0.0, 0.0});
    expect_matches_reference(sub, test_point(12));
}

}  // namespace
}  // namespace qoc::control
