#include "quantum/superop.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/expm.hpp"
#include "linalg/kron.hpp"
#include "oracles/channels.hpp"
#include "oracles/propagators.hpp"
#include "oracles/quantum.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"

namespace qoc::quantum {
namespace {

using oracle::amplitude_damping_superop;
using oracle::depolarizing_superop;
using oracle::is_density_matrix;
using oracle::phase_damping_superop;

using linalg::cplx;
constexpr cplx kI{0.0, 1.0};

TEST(Superop, HamiltonianPartMatchesCommutator) {
    const Mat h = 0.7 * sigma_x() + 0.2 * sigma_z();
    const Mat l = liouvillian_hamiltonian(h);
    const Mat rho = ket_to_dm(gates::h() * basis_ket(2, 0));
    const Mat lhs = apply_superop(l, rho);
    const Mat rhs = (-kI) * linalg::commutator(h, rho);
    EXPECT_TRUE(lhs.approx_equal(rhs, 1e-12));
}

TEST(Superop, DissipatorMatchesDirectForm) {
    const Mat c = std::sqrt(0.05) * sigma_minus();
    const Mat d = lindblad_dissipator(c);
    const Mat rho = ket_to_dm(basis_ket(2, 1));
    const Mat lhs = apply_superop(d, rho);
    const Mat cdc = c.adjoint() * c;
    const Mat rhs = c * rho * c.adjoint() - 0.5 * (cdc * rho + rho * cdc);
    EXPECT_TRUE(lhs.approx_equal(rhs, 1e-13));
}

TEST(Superop, LiouvillianTracePreserving) {
    const Mat h = 0.3 * sigma_x();
    const Mat l = liouvillian(h, {std::sqrt(0.02) * sigma_minus(),
                                  std::sqrt(0.01) * sigma_z()});
    // e^{L t} must be trace preserving for any t.
    const Mat prop = linalg::expm(2.0 * l);
    EXPECT_TRUE(is_trace_preserving(prop, 1e-10));
}

TEST(Superop, AmplitudeDampingDecaysExcitedState) {
    // d rho / dt with L1 = sqrt(gamma) sigma_-: excited population decays at
    // rate gamma, coherence at gamma/2.
    const double gamma = 0.1;
    const Mat l = liouvillian(Mat(2, 2), {std::sqrt(gamma) * sigma_minus()});
    const double t = 3.0;
    const Mat prop = linalg::expm(t * l);
    Mat rho{{0.3, cplx{0.2, 0.1}}, {cplx{0.2, -0.1}, 0.7}};
    const Mat out = apply_superop(prop, rho);
    EXPECT_NEAR(out(1, 1).real(), 0.7 * std::exp(-gamma * t), 1e-10);
    EXPECT_NEAR(std::abs(out(0, 1)), std::abs(rho(0, 1)) * std::exp(-gamma * t / 2.0), 1e-10);
    EXPECT_NEAR(out.trace().real(), 1.0, 1e-12);
}

TEST(Superop, UnitarySuperopMatchesConjugation) {
    const Mat u = gates::h();
    const Mat s = unitary_superop(u);
    const Mat rho = ket_to_dm(basis_ket(2, 1));
    EXPECT_TRUE(apply_superop(s, rho).approx_equal(u * rho * u.adjoint(), 1e-13));
    EXPECT_TRUE(is_trace_preserving(s));
}

TEST(Superop, UnitarySuperopComposition) {
    const Mat s1 = unitary_superop(gates::h());
    const Mat s2 = unitary_superop(gates::s());
    const Mat s21 = unitary_superop(gates::s() * gates::h());
    EXPECT_TRUE((s2 * s1).approx_equal(s21, 1e-12));
}

TEST(Superop, DepolarizingChannelContractsBloch) {
    const double p = 0.2;
    const Mat s = depolarizing_superop(2, p);
    EXPECT_TRUE(is_trace_preserving(s));
    const Mat rho = ket_to_dm(basis_ket(2, 0));
    const Mat out = apply_superop(s, rho);
    const auto b = bloch_vector(out);
    EXPECT_NEAR(b.z, 1.0 - p, 1e-12);
    EXPECT_THROW(depolarizing_superop(2, 1.5), std::invalid_argument);
}

TEST(Superop, DepolarizingIdentityAtZero) {
    EXPECT_TRUE(depolarizing_superop(2, 0.0).approx_equal(Mat::identity(4), 1e-13));
    EXPECT_TRUE(depolarizing_superop(3, 0.0).approx_equal(Mat::identity(9), 1e-13));
}

TEST(Superop, AmplitudeDampingChannelKrausForm) {
    const double gamma = 0.3;
    const Mat s = amplitude_damping_superop(gamma);
    EXPECT_TRUE(is_trace_preserving(s, 1e-12));
    const Mat out = apply_superop(s, ket_to_dm(basis_ket(2, 1)));
    EXPECT_NEAR(out(1, 1).real(), 1.0 - gamma, 1e-12);
    EXPECT_NEAR(out(0, 0).real(), gamma, 1e-12);
}

TEST(Superop, PhaseDampingKillsCoherenceOnly) {
    const double lambda = 0.4;
    const Mat s = phase_damping_superop(lambda);
    Mat rho{{0.5, 0.5}, {0.5, 0.5}};
    const Mat out = apply_superop(s, rho);
    EXPECT_NEAR(out(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(out(0, 1).real(), 0.5 * std::sqrt(1.0 - lambda), 1e-12);
}

TEST(Superop, MatchesMasterEquationForDuffing) {
    // 3-level system: generator built from the Duffing drift + T1 collapse
    // operator; propagator must preserve trace and positivity of a state.
    const std::size_t d = 3;
    const Mat h = duffing_drift(d, 0.1, -2.0) + 0.3 * drive_x(d);
    const Mat c = std::sqrt(0.01) * annihilation(d);
    const Mat l = liouvillian(h, {c});
    const Mat prop = linalg::expm(1.7 * l);
    EXPECT_TRUE(is_trace_preserving(prop, 1e-9));
    const Mat rho0 = ket_to_dm(basis_ket(d, 1));
    const Mat rho1 = apply_superop(prop, rho0);
    EXPECT_TRUE(is_density_matrix(rho1, 1e-8));
}

/// Open-system slot propagators `exp(dt (L_0 + sum_j amps[k][j] L_j))`
/// through the Pade engine, one reused workspace, as the pulse executor and
/// the open-system GRAPE evaluator build them.
std::vector<Mat> pade_slot_propagators(const Mat& l0, const std::vector<Mat>& lc,
                                       const std::vector<std::vector<double>>& amps,
                                       double dt) {
    linalg::PadeWorkspace<Mat> ws;
    std::vector<Mat> props(amps.size());
    for (std::size_t k = 0; k < amps.size(); ++k) {
        Mat gen = l0;
        for (std::size_t j = 0; j < lc.size(); ++j) linalg::add_scaled(gen, amps[k][j], lc[j]);
        gen *= dt;
        linalg::pade_prepare(gen, props[k], ws);
    }
    return props;
}

TEST(PwcSuperop, TracePreservingChain) {
    const Mat l0 = liouvillian(0.4 * sigma_z(), {std::sqrt(0.03) * sigma_minus()});
    const Mat lx = liouvillian_hamiltonian(sigma_x());
    const Mat total =
        oracle::chain_product(pade_slot_propagators(l0, {lx}, {{0.7}, {0.1}, {-0.3}}, 0.5));
    EXPECT_TRUE(is_trace_preserving(total, 1e-9));
}

TEST(PwcSuperop, ReducesToUnitaryWithoutDissipation) {
    // Without collapse operators the Pade superop chain equals the unitary
    // conjugation superoperator of the oracle's eigendecomposition chain.
    const Mat h0 = 0.3 * sigma_z();
    const Mat h1 = sigma_x();
    const std::vector<std::vector<double>> amps{{0.9}, {-0.2}, {0.5}, {0.0}};
    const double dt = 0.21;
    const Mat u = oracle::chain_product(oracle::pwc_unitary_propagators(h0, {h1}, amps, dt));
    const Mat s = oracle::chain_product(pade_slot_propagators(
        liouvillian_hamiltonian(h0), {liouvillian_hamiltonian(h1)}, amps, dt));
    EXPECT_TRUE(s.approx_equal(unitary_superop(u), 1e-10));
}

}  // namespace
}  // namespace qoc::quantum
