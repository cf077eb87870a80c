#include "control/pulse_shapes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace qoc::control {
namespace {

TEST(PulseShapes, GaussianPeakAtCenterAndSymmetric) {
    const auto p = gaussian_pulse(64);
    const auto max_it = std::max_element(p.begin(), p.end());
    const std::size_t peak = max_it - p.begin();
    EXPECT_TRUE(peak == 31 || peak == 32);
    EXPECT_NEAR(*max_it, 1.0, 1e-3);
    for (std::size_t k = 0; k < p.size(); ++k) {
        EXPECT_NEAR(p[k], p[p.size() - 1 - k], 1e-12) << k;
    }
}

TEST(PulseShapes, GaussianDerivativeAntisymmetricUnitPeak) {
    const auto p = gaussian_derivative_pulse(64);
    double peak = 0.0;
    for (double v : p) peak = std::max(peak, std::abs(v));
    EXPECT_NEAR(peak, 1.0, 1e-12);
    for (std::size_t k = 0; k < p.size(); ++k) {
        EXPECT_NEAR(p[k], -p[p.size() - 1 - k], 1e-12) << k;
    }
    // Zero net area by antisymmetry.
    EXPECT_NEAR(pulse_area(p, 1.0), 0.0, 1e-10);
}

TEST(PulseShapes, DragQuadratureScaledByBeta) {
    const auto d = drag_pulse(32, 0.25, 0.5);
    const auto deriv = gaussian_derivative_pulse(32, 0.25);
    for (std::size_t k = 0; k < 32; ++k) {
        EXPECT_NEAR(d.quadrature[k], 0.5 * deriv[k], 1e-12);
    }
}

TEST(PulseShapes, GaussianSquareHasPlateau) {
    const auto p = gaussian_square_pulse(100, 0.6, 0.05);
    // Middle 50% must be exactly 1.
    for (std::size_t k = 30; k < 70; ++k) EXPECT_DOUBLE_EQ(p[k], 1.0);
    // Edges decay.
    EXPECT_LT(p.front(), 0.1);
    EXPECT_LT(p.back(), 0.1);
    EXPECT_THROW(gaussian_square_pulse(10, 1.5), std::invalid_argument);
}

TEST(PulseShapes, SineArchPositiveWithPeakCenter) {
    const auto p = sine_pulse(50);
    for (double v : p) EXPECT_GE(v, 0.0);
    EXPECT_NEAR(*std::max_element(p.begin(), p.end()), 1.0, 1e-3);
}

TEST(PulseShapes, SquareAndZero) {
    const auto sq = square_pulse(8);
    for (double v : sq) EXPECT_DOUBLE_EQ(v, 1.0);
    const auto z = zero_pulse(8);
    for (double v : z) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(PulseShapes, RandomDeterministicAndBounded) {
    const auto a = random_pulse(64, 42);
    const auto b = random_pulse(64, 42);
    EXPECT_EQ(a, b);
    const auto c = random_pulse(64, 43);
    EXPECT_NE(a, c);
    for (double v : a) {
        EXPECT_GE(v, -1.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(PulseShapes, ScaledMultiplies) {
    const auto p = scaled(square_pulse(4), 0.3);
    for (double v : p) EXPECT_DOUBLE_EQ(v, 0.3);
}

TEST(PulseShapes, PulseAreaGaussianApproxAnalytic) {
    // Integral of exp(-t^2/(2 s^2)) over [0,1] with s = 0.1 and center 0.5:
    // approx s * sqrt(2 pi) = 0.2507 (tails negligible).
    const std::size_t n = 2000;
    const auto p = gaussian_pulse(n, 0.1);
    EXPECT_NEAR(pulse_area(p, 1.0 / n), 0.1 * std::sqrt(2.0 * M_PI), 1e-4);
}

TEST(PulseShapes, ResampleZohPreservesValues) {
    const std::vector<double> src{1.0, 2.0, 3.0, 4.0};
    const auto up = resample_zoh(src, 8);
    EXPECT_EQ(up.size(), 8u);
    EXPECT_DOUBLE_EQ(up[0], 1.0);
    EXPECT_DOUBLE_EQ(up[1], 1.0);
    EXPECT_DOUBLE_EQ(up[7], 4.0);
    const auto down = resample_zoh(up, 4);
    EXPECT_EQ(down, src);
}

TEST(PulseShapes, EmptyInputsThrow) {
    EXPECT_THROW(gaussian_pulse(0), std::invalid_argument);
    EXPECT_THROW(sine_pulse(0), std::invalid_argument);
    EXPECT_THROW(resample_zoh({}, 4), std::invalid_argument);
    EXPECT_THROW(resample_zoh({1.0}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace qoc::control
