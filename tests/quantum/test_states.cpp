#include "quantum/states.hpp"

#include <gtest/gtest.h>

#include "linalg/kron.hpp"
#include "oracles/quantum.hpp"
#include "quantum/gates.hpp"

namespace qoc::quantum {
namespace {

using oracle::is_density_matrix;
using oracle::purity;

TEST(States, BasisKet) {
    const Mat k = basis_ket(3, 1);
    EXPECT_EQ(k(0, 0), cplx(0.0, 0.0));
    EXPECT_EQ(k(1, 0), cplx(1.0, 0.0));
    EXPECT_THROW(basis_ket(2, 2), std::invalid_argument);
}

TEST(States, BasisKetBits) {
    // |10> = index 2 of 4.
    const Mat k = basis_ket_bits({1, 0});
    EXPECT_EQ(k.rows(), 4u);
    EXPECT_EQ(k(2, 0), cplx(1.0, 0.0));
    EXPECT_THROW(basis_ket_bits({2}), std::invalid_argument);
}

TEST(States, KetToDm) {
    const Mat psi = gates::h() * basis_ket(2, 0);  // |+>
    const Mat rho = ket_to_dm(psi);
    EXPECT_TRUE(is_density_matrix(rho));
    EXPECT_NEAR(purity(rho), 1.0, 1e-12);
    EXPECT_NEAR(rho(0, 1).real(), 0.5, 1e-12);
}

TEST(States, DensityMatrixValidation) {
    EXPECT_TRUE(is_density_matrix(0.5 * Mat::identity(2)));
    // Not unit trace.
    EXPECT_FALSE(is_density_matrix(Mat::identity(2)));
    // Negative eigenvalue.
    Mat neg{{1.5, 0.0}, {0.0, -0.5}};
    EXPECT_FALSE(is_density_matrix(neg));
}

TEST(States, PurityOfMixedState) {
    EXPECT_NEAR(purity(0.5 * Mat::identity(2)), 0.5, 1e-12);
}

TEST(States, Populations) {
    Mat rho{{0.25, 0.1}, {0.1, 0.75}};
    const auto p = populations(rho);
    EXPECT_NEAR(p[0], 0.25, 1e-12);
    EXPECT_NEAR(p[1], 0.75, 1e-12);
}

TEST(States, BlochVectorOfCardinalStates) {
    const auto zplus = bloch_vector(ket_to_dm(basis_ket(2, 0)));
    EXPECT_NEAR(zplus.z, 1.0, 1e-12);
    EXPECT_NEAR(zplus.x, 0.0, 1e-12);
    const auto xplus = bloch_vector(ket_to_dm(gates::h() * basis_ket(2, 0)));
    EXPECT_NEAR(xplus.x, 1.0, 1e-12);
    EXPECT_NEAR(xplus.z, 0.0, 1e-12);
}

TEST(States, PartialTraceProductState) {
    const Mat rho0 = ket_to_dm(basis_ket(2, 0));
    const Mat rho1 = ket_to_dm(gates::h() * basis_ket(2, 0));
    const Mat joint = linalg::kron(rho0, rho1);
    EXPECT_TRUE(partial_trace(joint, 2, 2, 1).approx_equal(rho0, 1e-12));
    EXPECT_TRUE(partial_trace(joint, 2, 2, 0).approx_equal(rho1, 1e-12));
}

TEST(States, PartialTraceBellStateIsMaximallyMixed) {
    // |Phi+> = (|00> + |11>)/sqrt(2)
    Mat bell(4, 1);
    bell(0, 0) = cplx{1.0 / std::sqrt(2.0), 0.0};
    bell(3, 0) = cplx{1.0 / std::sqrt(2.0), 0.0};
    const Mat rho = ket_to_dm(bell);
    const Mat reduced = partial_trace(rho, 2, 2, 0);
    EXPECT_TRUE(reduced.approx_equal(0.5 * Mat::identity(2), 1e-12));
}

TEST(States, PartialTracePreservesTrace) {
    const Mat rho = ket_to_dm(basis_ket(6, 3));
    const Mat red = partial_trace(rho, 2, 3, 1);
    EXPECT_NEAR(red.trace().real(), 1.0, 1e-12);
    EXPECT_THROW(partial_trace(rho, 2, 2, 0), std::invalid_argument);
    EXPECT_THROW(partial_trace(rho, 2, 3, 2), std::invalid_argument);
}

}  // namespace
}  // namespace qoc::quantum
