/// `ControlProblem` checks that need no optimizer:
/// - the open-system evaluator, which runs in the real Hermitian operator
///   basis, against a complex standard-basis reference kept here (the
///   shared-Pade `pade_prepare` / `pade_direction` engine on the original
///   Liouvillian generators), on random Lindblad problems across every
///   Pade order;
/// - the open problems the real basis must reject;
/// - size validation of every public entry point that indexes amplitudes;
/// - the optimizer's cost (PSU, SU, subspace PSU, state transfer and
///   TRACEDIFF) against the textbook fidelity formulas of `tests/oracles`.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "control/control_problem.hpp"
#include "linalg/expm.hpp"
#include "oracles/propagators.hpp"
#include "oracles/quantum.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::control {
namespace {

using linalg::cplx;
using linalg::Mat;

Mat random_complex(std::size_t d, std::mt19937_64& rng) {
    std::normal_distribution<double> dist;
    Mat m(d, d);
    for (cplx& v : m.data()) v = cplx{dist(rng), dist(rng)};
    return m;
}

Mat random_hermitian(std::size_t d, std::mt19937_64& rng) {
    const Mat m = random_complex(d, rng);
    return 0.5 * (m + m.adjoint());
}

/// Random Lindblad problem: drift -i[H0, .] plus two random dissipators,
/// `n_ctrl` random Hermitian controls, a random unitary channel as target,
/// and random amplitudes in [-1, 1].
struct RandomCase {
    GrapeProblem p;
    std::vector<double> x;
};

RandomCase random_lindblad(std::size_t d, std::size_t n_ctrl, std::size_t n_ts, double slot_norm,
                           unsigned seed) {
    std::mt19937_64 rng(seed);
    RandomCase c;
    std::vector<Mat> collapse;
    for (std::size_t k = 0; k < 2; ++k) collapse.push_back(0.3 * random_complex(d, rng));
    c.p.system.drift = quantum::liouvillian(random_hermitian(d, rng), collapse);
    for (std::size_t j = 0; j < n_ctrl; ++j) {
        c.p.system.ctrls.push_back(quantum::liouvillian_hamiltonian(random_hermitian(d, rng)));
    }
    c.p.target = quantum::unitary_superop(oracle::expm_hermitian(random_hermitian(d, rng), 1.0));
    c.p.fidelity = FidelityType::kTraceDiff;
    c.p.n_timeslots = n_ts;
    // Slot length so that ||dt L0||_1 ~ slot_norm: sweeps the Pade order.
    c.p.evo_time = static_cast<double>(n_ts) * slot_norm / c.p.system.drift.norm_1();
    c.p.initial_amps.assign(n_ts, std::vector<double>(n_ctrl, 0.0));
    std::uniform_real_distribution<double> amp(-1.0, 1.0);
    c.x.resize(n_ts * n_ctrl);
    for (double& v : c.x) v = amp(rng);
    return c;
}

/// The complex standard-basis open objective: per-slot shared-Pade factors
/// of A_k = dt (L0 + sum u_j L_j), the cost ||T - E||_F^2 / (2 D), and the
/// adjoint-direction gradient -Re Tr(L(A_k, R_k) dt L_j) / D with
/// R_k = fwd_{k-1} C P_{N-1} ... P_{k+1}, C = (T - E)^dag.  Records every
/// slot's Pade order and squarings.
double reference_objective(const GrapeProblem& p, const std::vector<double>& x,
                           std::vector<double>& grad, std::set<int>& orders,
                           int& max_squarings) {
    const std::size_t n_ts = p.n_timeslots, nc = p.system.ctrls.size();
    const std::size_t dim = p.system.drift.rows();
    const double dt = p.evo_time / static_cast<double>(n_ts);
    std::vector<linalg::PadeWorkspace<Mat>> ws(n_ts);
    std::vector<Mat> props(n_ts), fwd(n_ts), bwd(n_ts);
    for (std::size_t k = 0; k < n_ts; ++k) {
        Mat a = p.system.drift;
        for (std::size_t j = 0; j < nc; ++j) a += x[k * nc + j] * p.system.ctrls[j];
        a *= dt;
        linalg::pade_prepare(a, props[k], ws[k]);
        orders.insert(ws[k].order);
        max_squarings = std::max(max_squarings, ws[k].squarings);
        fwd[k] = (k == 0) ? props[k] : props[k] * fwd[k - 1];
    }
    const Mat& evo = fwd.back();
    const Mat diff = p.target - evo;
    const double err =
        0.5 * diff.frobenius_norm() * diff.frobenius_norm() / static_cast<double>(dim);
    bwd[n_ts - 1] = diff.adjoint();
    for (std::size_t k = n_ts - 1; k-- > 0;) bwd[k] = bwd[k + 1] * props[k + 1];
    grad.assign(n_ts * nc, 0.0);
    for (std::size_t k = 0; k < n_ts; ++k) {
        const Mat r = (k == 0) ? bwd[k] : fwd[k - 1] * bwd[k];
        Mat l;
        linalg::pade_direction(ws[k], r, l);
        for (std::size_t j = 0; j < nc; ++j) {
            grad[k * nc + j] =
                -linalg::trace_of_product(l, dt * p.system.ctrls[j]).real() /
                static_cast<double>(dim);
        }
    }
    return err;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]));
    return d;
}

double max_abs(const std::vector<double>& a) {
    double m = 0.0;
    for (double v : a) m = std::max(m, std::abs(v));
    return m;
}

TEST(OpenRealBasis, ObjectiveAndGradientMatchComplexReference) {
    std::set<int> orders;
    int max_squarings = 0;
    unsigned seed = 1;
    for (const std::size_t d : {2u, 3u}) {
        for (const std::size_t n_ctrl : {1u, 2u}) {
            for (const double slot_norm : {0.004, 0.1, 0.6, 1.5, 3.5, 12.0, 60.0}) {
                const RandomCase c = random_lindblad(d, n_ctrl, 5, slot_norm, seed++);
                const ControlProblem cp(c.p);
                std::vector<double> grad, ref_grad;
                const double f = cp.objective(c.x, grad);
                const double ref = reference_objective(c.p, c.x, ref_grad, orders, max_squarings);
                EXPECT_LE(std::abs(f - ref), 1e-12 * std::abs(ref))
                    << "d=" << d << " n_ctrl=" << n_ctrl << " slot_norm=" << slot_norm;
                EXPECT_LE(max_abs_diff(grad, ref_grad), 1e-12 * max_abs(ref_grad))
                    << "d=" << d << " n_ctrl=" << n_ctrl << " slot_norm=" << slot_norm;
            }
        }
    }
    // The sweep covered every Pade order, and order 13 with squarings.
    EXPECT_EQ(orders, (std::set<int>{3, 5, 7, 9, 13}));
    EXPECT_GE(max_squarings, 2);
}

TEST(OpenRealBasis, EvolutionAndFidErrInStandardBasis) {
    const RandomCase c = random_lindblad(3, 2, 6, 2.5, 77);
    const ControlProblem cp(c.p);
    const ControlAmplitudes amps = cp.unflatten(c.x);
    const double dt = cp.dt();
    Mat want = Mat::identity(9);
    for (std::size_t k = 0; k < 6; ++k) {
        const Mat a = dt * (c.p.system.drift + amps[k][0] * c.p.system.ctrls[0] +
                            amps[k][1] * c.p.system.ctrls[1]);
        want = linalg::expm(a) * want;
    }
    const Mat got = cp.evolution(amps);
    EXPECT_LE((got - want).max_abs(), 1e-12 * want.max_abs());
    EXPECT_LE(std::abs(cp.fid_err(amps) - cp.fid_err_of(want)), 1e-12 * cp.fid_err_of(want));
    std::vector<double> grad;
    EXPECT_DOUBLE_EQ(cp.fid_err(amps), cp.objective(c.x, grad));
}

GrapeProblem qubit_lindblad() {
    GrapeProblem p;
    p.system.drift = quantum::liouvillian(0.1 * quantum::sigma_z(), {0.2 * quantum::sigma_minus()});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * quantum::sigma_x())};
    p.target = quantum::unitary_superop(quantum::sigma_x());
    p.fidelity = FidelityType::kTraceDiff;
    p.n_timeslots = 4;
    p.evo_time = 3.0;
    p.initial_amps.assign(4, {0.0});
    return p;
}

TEST(OpenRealBasis, RejectsNonSquareSuperopDimension) {
    GrapeProblem p = qubit_lindblad();
    p.system.drift = Mat(6, 6);
    p.system.ctrls = {Mat::identity(6)};
    p.target = Mat::identity(6);
    EXPECT_THROW(ControlProblem{p}, std::invalid_argument);
}

TEST(OpenRealBasis, RejectsNonHermiticityPreservingGenerator) {
    // i * (-i[H, .]) = [H, .] maps Hermitian states to anti-Hermitian ones.
    const Mat bad = cplx{0.0, 1.0} * quantum::liouvillian_hamiltonian(quantum::sigma_y());
    GrapeProblem p = qubit_lindblad();
    p.system.drift = bad;
    EXPECT_THROW(ControlProblem{p}, std::invalid_argument);
    p = qubit_lindblad();
    p.system.ctrls.push_back(bad);
    for (auto& slot : p.initial_amps) slot.push_back(0.0);
    EXPECT_THROW(ControlProblem{p}, std::invalid_argument);
}

TEST(OpenRealBasis, RejectsNonHermiticityPreservingTarget) {
    // Identity plus i[H, .]: trace preserving, but not Hermiticity preserving.
    GrapeProblem p = qubit_lindblad();
    p.target = Mat::identity(4) +
               cplx{0.0, 1.0} * quantum::liouvillian_hamiltonian(0.3 * quantum::sigma_x());
    EXPECT_THROW(ControlProblem{p}, std::invalid_argument);
}

TEST(OpenRealBasis, RejectsNonFiniteGenerator) {
    for (const double bad : {std::nan(""), HUGE_VAL}) {
        GrapeProblem p = qubit_lindblad();
        p.system.drift(1, 2) = bad;
        EXPECT_THROW(ControlProblem{p}, std::invalid_argument) << bad;
    }
}

GrapeProblem qubit_closed() {
    GrapeProblem p;
    p.system.drift = 0.1 * quantum::sigma_z();
    p.system.ctrls = {0.5 * quantum::sigma_x(), 0.5 * quantum::sigma_y()};
    p.target = quantum::sigma_x();
    p.fidelity = FidelityType::kPsu;
    p.n_timeslots = 3;
    p.evo_time = 3.0;
    p.initial_amps.assign(3, {0.0, 0.0});
    return p;
}

TEST(ControlProblemInput, ObjectiveRejectsWrongParameterCount) {
    for (const GrapeProblem& p : {qubit_closed(), qubit_lindblad()}) {
        const ControlProblem cp(p);
        std::vector<double> grad;
        EXPECT_THROW(cp.objective(std::vector<double>(cp.n_params() - 1, 0.1), grad),
                     std::invalid_argument);
        EXPECT_THROW(cp.objective(std::vector<double>(cp.n_params() + 1, 0.1), grad),
                     std::invalid_argument);
        EXPECT_THROW(cp.objective({}, grad), std::invalid_argument);
        EXPECT_NO_THROW(cp.objective(std::vector<double>(cp.n_params(), 0.1), grad));
    }
}

TEST(ControlProblemInput, UnflattenAndFlattenRejectWrongShape) {
    const ControlProblem cp(qubit_closed());
    EXPECT_THROW(cp.unflatten(std::vector<double>(cp.n_params() - 1)), std::invalid_argument);
    EXPECT_THROW(cp.flatten(ControlAmplitudes(cp.n_ts() - 1, std::vector<double>(2))),
                 std::invalid_argument);
    EXPECT_THROW(cp.flatten(ControlAmplitudes(cp.n_ts(), std::vector<double>(1))),
                 std::invalid_argument);
}

TEST(ControlProblemInput, EvolutionAndFidErrRejectWrongShape) {
    for (const GrapeProblem& p : {qubit_closed(), qubit_lindblad()}) {
        const ControlProblem cp(p);
        ControlAmplitudes short_table(cp.n_ts() - 1, std::vector<double>(cp.n_ctrl(), 0.1));
        EXPECT_THROW(cp.evolution(short_table), std::invalid_argument);
        EXPECT_THROW(cp.fid_err(short_table), std::invalid_argument);
        ControlAmplitudes ragged(cp.n_ts(), std::vector<double>(cp.n_ctrl(), 0.1));
        ragged.back().pop_back();
        EXPECT_THROW(cp.evolution(ragged), std::invalid_argument);
        EXPECT_THROW(cp.fid_err(ragged), std::invalid_argument);
        EXPECT_THROW(cp.slot_exponent(std::vector<double>(cp.n_ctrl() + 1)),
                     std::invalid_argument);
    }
}

/// Random closed problem on dimension `d`: random Hermitian drift and
/// `n_ctrl` controls, a random unitary target of dimension `d_target`.
GrapeProblem random_closed(std::size_t d, std::size_t d_target, std::size_t n_ctrl,
                           FidelityType fidelity, std::mt19937_64& rng) {
    GrapeProblem p;
    p.system.drift = random_hermitian(d, rng);
    for (std::size_t j = 0; j < n_ctrl; ++j) p.system.ctrls.push_back(random_hermitian(d, rng));
    p.target = oracle::expm_hermitian(random_hermitian(d_target, rng), 1.0);
    p.fidelity = fidelity;
    p.n_timeslots = 5;
    p.evo_time = 2.0;
    p.initial_amps.assign(5, std::vector<double>(n_ctrl, 0.0));
    return p;
}

/// Random amplitudes inside the problem's +-1 box.
ControlAmplitudes random_amps(const GrapeProblem& p, std::mt19937_64& rng) {
    std::uniform_real_distribution<double> amp(p.amp_lower, p.amp_upper);
    ControlAmplitudes amps(p.n_timeslots, std::vector<double>(p.system.ctrls.size()));
    for (auto& slot : amps) {
        for (double& v : slot) v = amp(rng);
    }
    return amps;
}

TEST(ControlProblemOracle, FidErrMatchesIndependentFidelities) {
    // `fid_err` and `fid_err_of` must equal the textbook formula of the cost
    // the problem names, evaluated by the oracle on `evolution`.
    const auto expect_cost = [](const GrapeProblem& p, const ControlAmplitudes& amps,
                                const auto& oracle_err, const char* what) {
        SCOPED_TRACE(what);
        const ControlProblem cp(p);
        const Mat evo = cp.evolution(amps);
        const double want = oracle_err(evo);
        EXPECT_GT(want, 1e-3);  // a random point is far from the target
        EXPECT_LE(std::abs(cp.fid_err(amps) - want), 1e-12 * want);
        EXPECT_LE(std::abs(cp.fid_err_of(evo) - want), 1e-12 * want);
    };
    std::mt19937_64 rng(2202);
    for (int rep = 0; rep < 3; ++rep) {
        GrapeProblem p = random_closed(3, 3, 2, FidelityType::kPsu, rng);
        expect_cost(p, random_amps(p, rng),
                    [&](const Mat& u) { return 1.0 - oracle::fidelity_psu(p.target, u); },
                    "PSU");

        p = random_closed(3, 3, 2, FidelityType::kSu, rng);
        expect_cost(p, random_amps(p, rng),
                    [&](const Mat& u) { return 1.0 - oracle::fidelity_su(p.target, u); }, "SU");

        p = random_closed(3, 2, 2, FidelityType::kPsu, rng);
        p.subspace_isometry = quantum::qubit_isometry(3);
        expect_cost(p, random_amps(p, rng),
                    [&](const Mat& u) {
                        return 1.0 -
                               oracle::fidelity_psu_subspace(p.target, u, *p.subspace_isometry);
                    },
                    "PSU on the qubit subspace");

        p = random_closed(3, 3, 2, FidelityType::kPsu, rng);
        const Mat psi0 = quantum::basis_ket(3, 0);
        const Mat psit = p.target * quantum::basis_ket(3, 1);
        p.state_transfer = GrapeProblem::StateTransfer{psi0, psit};
        expect_cost(p, random_amps(p, rng),
                    [&](const Mat& u) {
                        return 1.0 - oracle::state_fidelity(quantum::ket_to_dm(u * psi0), psit);
                    },
                    "state transfer");

        const RandomCase c = random_lindblad(3, 2, 5, 1.0, 31 + static_cast<unsigned>(rep));
        expect_cost(c.p, random_amps(c.p, rng),
                    [&](const Mat& e) { return oracle::tracediff_error(c.p.target, e); },
                    "TRACEDIFF");
    }
}

}  // namespace
}  // namespace qoc::control
