#include "quantum/fidelity.hpp"

#include <gtest/gtest.h>

#include <numbers>

#include "oracles/channels.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::quantum {
namespace {

using oracle::depolarizing_superop;

constexpr cplx kI{0.0, 1.0};

TEST(Fidelity, PsuPerfectMatch) {
    EXPECT_NEAR(fidelity_psu(gates::x(), gates::x()), 1.0, 1e-14);
    EXPECT_NEAR(fidelity_psu(gates::cx(), gates::cx()), 1.0, 1e-14);
}

TEST(Fidelity, PsuPhaseInvariant) {
    const Mat u = std::exp(kI * 0.73) * gates::h();
    EXPECT_NEAR(fidelity_psu(gates::h(), u), 1.0, 1e-13);
    // SU is phase sensitive.
    EXPECT_LT(fidelity_su(gates::h(), u), 1.0 - 1e-3);
}

TEST(Fidelity, PsuOrthogonalGatesZero) {
    EXPECT_NEAR(fidelity_psu(gates::x(), gates::z()), 0.0, 1e-14);
    EXPECT_NEAR(fidelity_psu(gates::x(), Mat::identity(2)), 0.0, 1e-14);
}

TEST(Fidelity, PsuSmallRotationQuadratic) {
    // F(I, RX(eps)) = cos^2(eps/2) ~ 1 - eps^2/4.
    for (double eps : {1e-2, 1e-3}) {
        const double f = fidelity_psu(Mat::identity(2), gates::rx(eps));
        EXPECT_NEAR(1.0 - f, eps * eps / 4.0, eps * eps * eps);
    }
}

TEST(Fidelity, SubspaceFidelityIgnoresThirdLevelPhase) {
    // A 3-level unitary acting as X on the qubit subspace and an arbitrary
    // phase on |2> has unit subspace fidelity.
    Mat u(3, 3);
    u(0, 1) = 1.0;
    u(1, 0) = 1.0;
    u(2, 2) = std::exp(kI * 1.1);
    const Mat p = qubit_isometry(3);
    EXPECT_NEAR(fidelity_psu_subspace(gates::x(), u, p), 1.0, 1e-13);
}

TEST(Fidelity, SubspaceFidelityPenalizesLeakage) {
    // Unitary that moves |1> -> |2| entirely: projected block loses weight.
    Mat u(3, 3);
    u(0, 0) = 1.0;
    u(2, 1) = 1.0;
    u(1, 2) = 1.0;
    const Mat p = qubit_isometry(3);
    EXPECT_LT(fidelity_psu_subspace(Mat::identity(2), u, p), 0.3);
}

TEST(Fidelity, TraceDiffZeroForEqualMaps) {
    const Mat s = unitary_superop(gates::h());
    EXPECT_NEAR(tracediff_error(s, s), 0.0, 1e-14);
}

TEST(Fidelity, TraceDiffPositiveAndSymmetric) {
    const Mat a = unitary_superop(gates::h());
    const Mat b = unitary_superop(gates::x());
    const double ab = tracediff_error(a, b);
    EXPECT_GT(ab, 0.0);
    EXPECT_NEAR(ab, tracediff_error(b, a), 1e-14);
}

TEST(Fidelity, AverageGateFidelityIdentity) {
    EXPECT_NEAR(average_gate_fidelity(gates::h(), gates::h()), 1.0, 1e-13);
    // Orthogonal pair on d=2: F_avg = (0 + 2)/(2*3) = 1/3.
    EXPECT_NEAR(average_gate_fidelity(gates::x(), gates::z()), 1.0 / 3.0, 1e-13);
}

TEST(Fidelity, AverageGateFidelityDepolarizing) {
    // For a depolarizing channel with probability p on d=2:
    // F_avg = 1 - p/2 (since F_avg = (d F_pro + 1)/(d+1), F_pro = 1 - p(1-1/d^2)).
    const double p = 0.1;
    const Mat chan = depolarizing_superop(2, p);
    const double f = average_gate_fidelity_superop(Mat::identity(2), chan);
    EXPECT_NEAR(f, 1.0 - p / 2.0, 1e-12);
}

TEST(Fidelity, AverageGateFidelityMatchesUnitaryFormula) {
    const Mat u = gates::rx(0.3);
    const double via_superop = average_gate_fidelity_superop(Mat::identity(2),
                                                             unitary_superop(u));
    const double via_trace = average_gate_fidelity(Mat::identity(2), u);
    EXPECT_NEAR(via_superop, via_trace, 1e-12);
}

TEST(Fidelity, StateFidelityPureStates) {
    const Mat zero = basis_ket(2, 0);
    const Mat plus = gates::h() * zero;
    EXPECT_NEAR(state_fidelity(ket_to_dm(zero), zero), 1.0, 1e-14);
    EXPECT_NEAR(state_fidelity(ket_to_dm(zero), plus), 0.5, 1e-13);
}

TEST(Fidelity, InputValidation) {
    EXPECT_THROW(fidelity_psu(Mat::identity(2), Mat::identity(3)), std::invalid_argument);
    EXPECT_THROW(tracediff_error(Mat::identity(4), Mat::identity(9)), std::invalid_argument);
    EXPECT_THROW(state_fidelity(Mat::identity(2), Mat::identity(2)), std::invalid_argument);
}

/// The relation EPC uses: for a depolarizing channel, average error rate
/// r = 1 - F_avg = (d-1)/d * p.  Sweep p and verify.
class DepolFidelitySweep : public ::testing::TestWithParam<double> {};

TEST_P(DepolFidelitySweep, ErrorRateLinearInP) {
    const double p = GetParam();
    const Mat chan = depolarizing_superop(2, p);
    const double r = 1.0 - average_gate_fidelity_superop(Mat::identity(2), chan);
    EXPECT_NEAR(r, 0.5 * p, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(PSweep, DepolFidelitySweep,
                         ::testing::Values(0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0));

}  // namespace
}  // namespace qoc::quantum
