/// Property-based sweeps over quantum channels and superoperators: trace
/// preservation, positivity, composition and fidelity identities across
/// parameter grids.

#include <gtest/gtest.h>

#include <random>

#include "linalg/expm.hpp"
#include "oracles/channels.hpp"
#include "quantum/fidelity.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::quantum {
namespace {

using oracle::amplitude_damping_superop;
using oracle::depolarizing_superop;
using oracle::phase_damping_superop;

namespace g = gates;

Mat random_density(std::size_t dim, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Mat a(dim, dim);
    for (auto& v : a.data()) v = cplx{dist(rng), dist(rng)};
    Mat rho = a * a.adjoint();
    rho *= cplx{1.0, 0.0} / rho.trace();
    return rho;
}

class ChannelParamSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChannelParamSweep, AmplitudeDampingIsCptpAndMonotone) {
    const double gamma = GetParam();
    const Mat chan = amplitude_damping_superop(gamma);
    EXPECT_TRUE(is_trace_preserving(chan, 1e-12));
    for (unsigned seed : {1u, 2u, 3u}) {
        const Mat rho = random_density(2, seed);
        const Mat out = apply_superop(chan, rho);
        EXPECT_TRUE(is_density_matrix(out, 1e-9)) << "gamma=" << gamma;
        // Excited population never increases under decay.
        EXPECT_LE(out(1, 1).real(), rho(1, 1).real() + 1e-12);
    }
}

TEST_P(ChannelParamSweep, PhaseDampingPreservesPopulations) {
    const double lambda = GetParam();
    const Mat chan = phase_damping_superop(lambda);
    for (unsigned seed : {4u, 5u}) {
        const Mat rho = random_density(2, seed);
        const Mat out = apply_superop(chan, rho);
        EXPECT_NEAR(out(0, 0).real(), rho(0, 0).real(), 1e-12);
        EXPECT_NEAR(out(1, 1).real(), rho(1, 1).real(), 1e-12);
        EXPECT_LE(std::abs(out(0, 1)), std::abs(rho(0, 1)) + 1e-12);
    }
}

TEST_P(ChannelParamSweep, DepolarizingFidelityLinear) {
    const double p = GetParam();
    const Mat chan = depolarizing_superop(2, p);
    EXPECT_NEAR(1.0 - average_gate_fidelity_superop(Mat::identity(2), chan), 0.5 * p, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Gamma, ChannelParamSweep,
                         ::testing::Values(0.0, 0.01, 0.1, 0.3, 0.7, 1.0));

TEST(ChannelComposition, TwoAmplitudeDampingsCompose) {
    // gamma_total = 1 - (1-g1)(1-g2) under composition.
    const double g1 = 0.2, g2 = 0.35;
    const Mat composed = amplitude_damping_superop(g2) * amplitude_damping_superop(g1);
    const Mat direct = amplitude_damping_superop(1.0 - (1.0 - g1) * (1.0 - g2));
    EXPECT_TRUE(composed.approx_equal(direct, 1e-12));
}

TEST(ChannelComposition, DepolarizingSemigroup) {
    // (1-p_total) = (1-p1)(1-p2).
    const double p1 = 0.1, p2 = 0.25;
    const Mat composed = depolarizing_superop(2, p2) * depolarizing_superop(2, p1);
    const Mat direct = depolarizing_superop(2, 1.0 - (1.0 - p1) * (1.0 - p2));
    EXPECT_TRUE(composed.approx_equal(direct, 1e-12));
}

TEST(LindbladLimit, ShortTimeAmplitudeDampingMatchesChannel) {
    // exp(t D[sqrt(gamma) sigma-]) ~ amplitude damping with 1 - e^{-gamma t}.
    const double gamma = 0.05, t = 2.0;
    const Mat gen = lindblad_dissipator(std::sqrt(gamma) * sigma_minus());
    const Mat prop = linalg::expm(t * gen);
    const Mat chan = amplitude_damping_superop(1.0 - std::exp(-gamma * t));
    EXPECT_TRUE(prop.approx_equal(chan, 1e-10));
}

class UnitaryFidelitySweep : public ::testing::TestWithParam<double> {};

TEST_P(UnitaryFidelitySweep, RotationAngleFidelityClosedForm) {
    // F_avg(I, RX(theta)) = (4 cos^2(theta/2) + 2) / 6.
    const double theta = GetParam();
    const double f = average_gate_fidelity(Mat::identity(2), g::rx(theta));
    const double expect = (4.0 * std::pow(std::cos(theta / 2.0), 2) + 2.0) / 6.0;
    EXPECT_NEAR(f, expect, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Angles, UnitaryFidelitySweep,
                         ::testing::Values(0.0, 0.1, 0.5, 1.0, M_PI / 2, M_PI));

TEST(SuperopAlgebra, LiouvillianLinearity) {
    const Mat h1 = 0.3 * sigma_x(), h2 = 0.5 * sigma_z();
    const Mat lhs = liouvillian_hamiltonian(h1 + h2);
    const Mat rhs = liouvillian_hamiltonian(h1) + liouvillian_hamiltonian(h2);
    EXPECT_TRUE(lhs.approx_equal(rhs, 1e-13));
}

TEST(SuperopAlgebra, UnitaryConjugationPreservesSpectrum) {
    const Mat rho = random_density(2, 11);
    const Mat out = apply_superop(unitary_superop(g::h()), rho);
    EXPECT_NEAR(purity(out), purity(rho), 1e-12);
    EXPECT_NEAR(out.trace().real(), 1.0, 1e-12);
}

TEST(SuperopAlgebra, ThreeLevelLiouvillianTracePreservingSweep) {
    for (double gamma : {1e-5, 1e-4, 1e-3}) {
        for (double t : {1.0, 50.0, 1000.0}) {
            const Mat l = liouvillian(duffing_drift(3, 0.01, -2.0),
                                      {std::sqrt(gamma) * annihilation(3)});
            EXPECT_TRUE(is_trace_preserving(linalg::expm(t * l), 1e-8))
                << "gamma=" << gamma << " t=" << t;
        }
    }
}

}  // namespace
}  // namespace qoc::quantum
