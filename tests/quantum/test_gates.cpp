#include "quantum/gates.hpp"

#include <gtest/gtest.h>

#include <numbers>

#include "linalg/expm.hpp"
#include "linalg/kron.hpp"
#include "oracles/quantum.hpp"
#include "quantum/operators.hpp"

namespace qoc::quantum::gates {
namespace {

using linalg::cplx;
using linalg::equal_up_to_phase;
using oracle::cz;
using oracle::iswap;
constexpr cplx kI{0.0, 1.0};

TEST(Gates, AllUnitary) {
    for (const Mat& g : {x(), y(), z(), h(), s(), sx(), t(), cx(), cx_10(), cz(), swap(), iswap(),
                         zx90(), rx(0.7), rz(-2.1)}) {
        EXPECT_TRUE(g.is_unitary(1e-12));
    }
}

TEST(Gates, SxSquaredIsX) { EXPECT_TRUE(equal_up_to_phase(sx() * sx(), x(), 1e-12)); }

TEST(Gates, SSquaredIsZ) { EXPECT_TRUE((s() * s()).approx_equal(z(), 1e-14)); }

TEST(Gates, TSquaredIsS) { EXPECT_TRUE((t() * t()).approx_equal(s(), 1e-13)); }

TEST(Gates, HadamardConjugatesXZ) {
    EXPECT_TRUE((h() * x() * h()).approx_equal(z(), 1e-13));
    EXPECT_TRUE((h() * z() * h()).approx_equal(x(), 1e-13));
}

TEST(Gates, HadamardAsEulerZSXZ) {
    // H = RZ(pi/2) SX RZ(pi/2) up to global phase -- how IBM transpiles H
    // (the paper contrasts its direct-H pulse against this decomposition).
    const Mat viaEuler = rz(std::numbers::pi / 2.0) * sx() * rz(std::numbers::pi / 2.0);
    EXPECT_TRUE(equal_up_to_phase(viaEuler, h(), 1e-12));
}

TEST(Gates, RxMatchesExponential) {
    for (double theta : {0.3, 1.0, 2.7}) {
        const Mat expected = linalg::expm((-kI * (theta / 2.0)) * sigma_x());
        EXPECT_TRUE(rx(theta).approx_equal(expected, 1e-12)) << theta;
    }
}

TEST(Gates, RzMatchesExponential) {
    const double theta = -0.8;
    const Mat expected = linalg::expm((-kI * (theta / 2.0)) * sigma_z());
    EXPECT_TRUE(rz(theta).approx_equal(expected, 1e-12));
}

TEST(Gates, CxActsOnBasis) {
    const Mat g = cx();
    // |10> -> |11>  (qubit 0 = control = most significant)
    Mat ket10(4, 1);
    ket10(2, 0) = 1.0;
    const Mat out = g * ket10;
    EXPECT_NEAR(std::abs(out(3, 0)), 1.0, 1e-14);
    // |01> unchanged.
    Mat ket01(4, 1);
    ket01(1, 0) = 1.0;
    EXPECT_NEAR(std::abs((g * ket01)(1, 0)), 1.0, 1e-14);
}

TEST(Gates, SwapFromThreeCx) {
    const Mat viaCx = cx() * cx_10() * cx();
    EXPECT_TRUE(viaCx.approx_equal(swap(), 1e-13));
}

TEST(Gates, CzFromHadamardConjugation) {
    const Mat hh = op_on_qubit(h(), 1, 2);
    EXPECT_TRUE((hh * cx() * hh).approx_equal(cz(), 1e-13));
}

TEST(Gates, Zx90GeneratesCxWithLocals) {
    // CNOT = e^{i pi/4} (RZ(pi/2) (x) RX(pi/2)) . ZX90^dagger  ... rather than
    // assert one textbook phase convention, verify ZX90 is locally equivalent
    // to CNOT via the standard identity CX = (I (x) H) CZ (I (x) H) and the
    // known relation: ZX90 * (Z^{-1/2} (x) X^{-1/2}) ~ CX.
    const Mat locals = linalg::kron(rz(-std::numbers::pi / 2.0), rx(-std::numbers::pi / 2.0));
    EXPECT_TRUE(equal_up_to_phase(zx90() * locals, cx(), 1e-12));
}

TEST(Gates, IswapUnitaryStructure) {
    const Mat g = iswap();
    EXPECT_EQ(g(1, 2), kI);
    EXPECT_EQ(g(2, 1), kI);
    EXPECT_EQ(g(0, 0), cplx(1.0, 0.0));
}

}  // namespace
}  // namespace qoc::quantum::gates
