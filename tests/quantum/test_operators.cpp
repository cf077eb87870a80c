#include "quantum/operators.hpp"

#include <gtest/gtest.h>

#include "linalg/kron.hpp"

namespace qoc::quantum {
namespace {

constexpr cplx kI{0.0, 1.0};

TEST(Operators, PauliAlgebra) {
    const Mat sx = sigma_x(), sy = sigma_y(), sz = sigma_z();
    // sx*sy = i*sz and cyclic permutations.
    EXPECT_TRUE((sx * sy).approx_equal(kI * sz, 1e-14));
    EXPECT_TRUE((sy * sz).approx_equal(kI * sx, 1e-14));
    EXPECT_TRUE((sz * sx).approx_equal(kI * sy, 1e-14));
    // Involutions.
    EXPECT_TRUE((sx * sx).approx_equal(Mat::identity(2), 1e-14));
    EXPECT_TRUE((sy * sy).approx_equal(Mat::identity(2), 1e-14));
    EXPECT_TRUE((sz * sz).approx_equal(Mat::identity(2), 1e-14));
}

TEST(Operators, LadderOperators) {
    const Mat sm = sigma_minus(), sp = sm.adjoint();
    // sigma_- |1> = |0>:  sm * (0,1)^T = (1,0)^T.
    EXPECT_EQ(sm(0, 1), cplx(1.0, 0.0));
    EXPECT_TRUE((sp + sm).approx_equal(sigma_x(), 1e-14));
    // sigma_z = [sp, sm] is diag(+1 on |1>...) careful with conventions:
    // here |0> is ground, sp=|1><0|, so [sp,sm] = |1><1| - |0><0| = -sz.
    EXPECT_TRUE(linalg::commutator(sp, sm).approx_equal(-1.0 * sigma_z(), 1e-14));
}

TEST(Operators, AnnihilationMatrixElements) {
    const Mat a = annihilation(4);
    EXPECT_NEAR(a(0, 1).real(), 1.0, 1e-15);
    EXPECT_NEAR(a(1, 2).real(), std::sqrt(2.0), 1e-15);
    EXPECT_NEAR(a(2, 3).real(), std::sqrt(3.0), 1e-15);
    EXPECT_THROW(annihilation(1), std::invalid_argument);
}

TEST(Operators, NumberOperatorFromLadder) {
    for (std::size_t d : {2u, 3u, 5u}) {
        const Mat n_direct = number_op(d);
        const Mat n_ladder = creation(d) * annihilation(d);
        EXPECT_TRUE(n_direct.approx_equal(n_ladder, 1e-13)) << "d=" << d;
    }
}

TEST(Operators, CommutatorTruncationArtifact) {
    // In infinite dimension [a, adag] = 1; truncation breaks it only in the
    // top level. Verify the structure.
    const std::size_t d = 4;
    const Mat c = linalg::commutator(annihilation(d), creation(d));
    for (std::size_t k = 0; k + 1 < d; ++k) EXPECT_NEAR(c(k, k).real(), 1.0, 1e-13);
    EXPECT_NEAR(c(d - 1, d - 1).real(), 1.0 - static_cast<double>(d), 1e-12);
}

TEST(Operators, DuffingDriftSpectrum) {
    // delta*n + (alpha/2) n(n-1): levels 0, delta, 2 delta + alpha.
    const double delta = 0.1, alpha = -2.0;
    const Mat h = duffing_drift(3, delta, alpha);
    EXPECT_NEAR(h(0, 0).real(), 0.0, 1e-15);
    EXPECT_NEAR(h(1, 1).real(), delta, 1e-15);
    EXPECT_NEAR(h(2, 2).real(), 2.0 * delta + alpha, 1e-13);
}

TEST(Operators, DuffingTwoLevelReducesToPauli) {
    const Mat h = duffing_drift(2, 0.4, -2.0);
    // Equal to 0.4 * |1><1| = 0.2 (I - sz).
    const Mat expect = 0.2 * (Mat::identity(2) - sigma_z());
    EXPECT_TRUE(h.approx_equal(expect, 1e-14));
}

TEST(Operators, DriveOperatorsHermitian) {
    for (std::size_t d : {2u, 3u, 4u}) {
        EXPECT_TRUE(drive_x(d).is_hermitian(1e-14));
        EXPECT_TRUE(drive_y(d).is_hermitian(1e-14));
    }
}

TEST(Operators, DriveXTwoLevelIsPauliX) {
    EXPECT_TRUE(drive_x(2).approx_equal(sigma_x(), 1e-14));
    EXPECT_TRUE(drive_y(2).approx_equal(sigma_y(), 1e-14));
}

TEST(Operators, DriveCarriesLadderFactors) {
    // The 1<->2 matrix element of a+adag is sqrt(2) -- the leakage channel
    // DRAG pulses suppress.
    const Mat dx = drive_x(3);
    EXPECT_NEAR(dx(1, 2).real(), std::sqrt(2.0), 1e-14);
}

TEST(Operators, OpOnQubitPlacement) {
    const Mat sz = sigma_z();
    const Mat z0 = op_on_qubit(sz, 0, 2);
    const Mat z1 = op_on_qubit(sz, 1, 2);
    EXPECT_TRUE(z0.approx_equal(linalg::kron(sz, Mat::identity(2)), 1e-14));
    EXPECT_TRUE(z1.approx_equal(linalg::kron(Mat::identity(2), sz), 1e-14));
    EXPECT_THROW(op_on_qubit(sz, 2, 2), std::invalid_argument);
}

TEST(Operators, OpOnQubitCommutesForDifferentTargets) {
    const Mat a = op_on_qubit(sigma_x(), 0, 3);
    const Mat b = op_on_qubit(sigma_y(), 2, 3);
    EXPECT_NEAR(linalg::commutator(a, b).max_abs(), 0.0, 1e-14);
}

TEST(Operators, QubitIsometryProjects) {
    const Mat p = qubit_isometry(3);
    EXPECT_TRUE((p.adjoint() * p).approx_equal(Mat::identity(2), 1e-14));
    // P P^dagger is the projector onto span{|0>, |1>}.
    const Mat proj = p * p.adjoint();
    EXPECT_NEAR(proj(2, 2).real(), 0.0, 1e-15);
    EXPECT_NEAR(proj(0, 0).real(), 1.0, 1e-15);
}

}  // namespace
}  // namespace qoc::quantum
