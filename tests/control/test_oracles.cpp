/// Independent physics oracles for the evaluators: closed-form detuned Rabi
/// against the closed propagators, and the open-system `ControlProblem`
/// (real operator basis) against an RK45 integration of the Lindblad master
/// equation with plain-loop products.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "control/control_problem.hpp"
#include "linalg/expm.hpp"
#include "oracles/integrator.hpp"
#include "oracles/propagators.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::control {
namespace {

using linalg::cplx;
using linalg::Mat;

double max_abs_diff(const Mat& a, const Mat& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.data().size(); ++i) {
        worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
    }
    return worst;
}

// --- closed form: detuned Rabi ----------------------------------------------

/// P1(t) = Omega^2 / (Omega^2 + Delta^2) sin^2(sqrt(Omega^2 + Delta^2) t / 2)
/// for H = (Delta / 2) sigma_z + (Omega / 2) sigma_x from |0>.
double rabi_p1(double omega, double delta, double t) {
    const double w2 = omega * omega + delta * delta;
    const double s = std::sin(std::sqrt(w2) * t / 2.0);
    return omega * omega / w2 * s * s;
}

TEST(Oracle, DetunedRabiMatchesClosedForm) {
    const double omega = 0.8;
    for (const double delta : {0.0, 0.5, -1.3}) {
        const Mat drift = (delta / 2.0) * quantum::sigma_z();
        const Mat ctrl = 0.5 * quantum::sigma_x();
        for (const double t : {1.1, 3.7, 8.2}) {
            SCOPED_TRACE(testing::Message() << "delta=" << delta << " t=" << t);
            const std::size_t n_ts = 7;
            const ControlAmplitudes amps(n_ts, {omega});
            const double want = rabi_p1(omega, delta, t);

            const PwcSystem sys{drift, {ctrl}};
            const Mat u_pwc = oracle::chain_product(oracle::pwc_unitary_propagators(
                drift, {ctrl}, amps, t / static_cast<double>(n_ts)));
            EXPECT_NEAR(std::norm(u_pwc(1, 0)), want, 1e-10);

            GrapeProblem p;
            p.system = sys;
            p.target = quantum::gates::x();
            p.n_timeslots = n_ts;
            p.evo_time = t;
            p.initial_amps = amps;
            const Mat u_cp = ControlProblem(p).evolution(amps);
            EXPECT_NEAR(std::norm(u_cp(1, 0)), want, 1e-10);
        }
    }
}

// --- open system: real-basis evaluator vs the master equation -----------------

/// A 3-level transmon (Duffing, detuned drive frame) with T1 decay and pure
/// dephasing, two drive quadratures.
struct OpenTransmon {
    Mat h0 = quantum::duffing_drift(3, 0.2, -1.9);
    std::vector<Mat> h_ctrls = {0.5 * quantum::drive_x(3), 0.5 * quantum::drive_y(3)};
    std::vector<Mat> c_ops = {std::sqrt(0.03) * quantum::annihilation(3),
                              std::sqrt(0.02) * quantum::number_op(3)};

    GrapeProblem problem(const ControlAmplitudes& amps, double evo_time) const {
        GrapeProblem p;
        p.system.drift = quantum::liouvillian(h0, c_ops);
        for (const Mat& h : h_ctrls) p.system.ctrls.push_back(quantum::liouvillian_hamiltonian(h));
        p.target = quantum::unitary_superop(Mat::identity(3));
        p.fidelity = FidelityType::kTraceDiff;
        p.n_timeslots = amps.size();
        p.evo_time = evo_time;
        p.initial_amps = amps;
        return p;
    }

    Mat hamiltonian(const std::vector<double>& u) const {
        Mat h = h0;
        for (std::size_t j = 0; j < h_ctrls.size(); ++j) h += u[j] * h_ctrls[j];
        return h;
    }
};

std::vector<Mat> initial_states() {
    using quantum::basis_ket;
    using quantum::ket_to_dm;
    std::vector<Mat> rhos = {ket_to_dm(basis_ket(3, 0)), ket_to_dm(basis_ket(3, 1)),
                             ket_to_dm(std::sqrt(0.5) * (basis_ket(3, 0) + basis_ket(3, 2)))};
    // A full-rank mixed state A A^dag / tr.
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Mat a(3, 3);
    for (cplx& v : a.data()) v = {dist(rng), dist(rng)};
    const Mat m = a * a.adjoint();
    rhos.push_back((1.0 / m.trace().real()) * m);
    return rhos;
}

TEST(Oracle, OpenEvaluatorMatchesMasterEquationSlotBySlot) {
    const OpenTransmon model;
    const ControlAmplitudes amps = {{0.6, -0.2}, {-0.4, 0.7}, {0.9, 0.1}, {0.0, -0.5}, {0.3, 0.3}};
    const double evo_time = 4.0;
    const double dt = evo_time / static_cast<double>(amps.size());
    const Mat evo = ControlProblem(model.problem(amps, evo_time)).evolution(amps);
    ASSERT_EQ(evo.rows(), 9u);

    oracle::IntegratorOptions tight;
    tight.rtol = 1e-12;
    tight.atol = 1e-14;
    for (const Mat& rho0 : initial_states()) {
        Mat rho = rho0;
        for (const auto& u : amps) {
            const Mat h = model.hamiltonian(u);
            rho = oracle::evolve_master_equation([&h](double) { return h; }, model.c_ops, rho,
                                                 0.0, dt, tight);
        }
        const Mat got = quantum::apply_superop(evo, rho0);
        EXPECT_LT(max_abs_diff(got, rho), 1e-8);
        EXPECT_NEAR(got.trace().real(), 1.0, 1e-12);
    }
}

TEST(Oracle, OpenEvaluatorMatchesExpmForConstantDrive) {
    const OpenTransmon model;
    const std::vector<double> u = {0.45, -0.25};
    const ControlAmplitudes amps(6, u);
    const double evo_time = 3.0;
    const Mat evo = ControlProblem(model.problem(amps, evo_time)).evolution(amps);

    const Mat l = quantum::liouvillian(model.hamiltonian(u), model.c_ops);
    const Mat want = linalg::expm(evo_time * l);
    EXPECT_LT(max_abs_diff(evo, want), 1e-8);

    // And the master equation over the whole constant drive, on one state.
    const Mat rho0 = initial_states().back();
    oracle::IntegratorOptions tight;
    tight.rtol = 1e-12;
    tight.atol = 1e-14;
    const Mat h = model.hamiltonian(u);
    const Mat rho_t = oracle::evolve_master_equation([&h](double) { return h; }, model.c_ops,
                                                     rho0, 0.0, evo_time, tight);
    EXPECT_LT(max_abs_diff(quantum::apply_superop(evo, rho0), rho_t), 1e-8);
}

}  // namespace
}  // namespace qoc::control
