#include "pulse/waveform.hpp"

#include <gtest/gtest.h>

#include "pulse/channels.hpp"

namespace qoc::pulse {
namespace {

TEST(Channels, Labels) {
    EXPECT_EQ(drive_channel(0).label(), "D0");
    EXPECT_EQ(control_channel(1).label(), "U1");
    EXPECT_EQ(acquire_channel(2).label(), "A2");
    EXPECT_EQ(measure_channel(3).label(), "M3");
}

TEST(Channels, Ordering) {
    EXPECT_LT(drive_channel(0), drive_channel(1));
    EXPECT_NE(drive_channel(0), control_channel(0));
}

TEST(Waveform, RejectsEmptyAndOverUnit) {
    EXPECT_THROW(Waveform(std::vector<std::complex<double>>{}), std::invalid_argument);
    EXPECT_THROW(Waveform(std::vector<std::complex<double>>{{1.5, 0.0}}),
                 std::invalid_argument);
    EXPECT_NO_THROW(Waveform(std::vector<std::complex<double>>{{1.0, 0.0}}));
}

TEST(Waveform, DragHasQuadrature) {
    const auto w = drag_waveform(64, {0.4, 0.0}, 0.3);
    double max_q = 0.0;
    for (const auto& s : w.samples()) max_q = std::max(max_q, std::abs(s.imag()));
    EXPECT_GT(max_q, 0.05);
    EXPECT_NEAR(max_q, 0.4 * 0.3, 0.02);
}

TEST(Waveform, GaussianSquarePlateau) {
    const auto w = gaussian_square_waveform(100, {0.8, 0.0}, 0.5, 0.05);
    EXPECT_NEAR(std::abs(w.samples()[50]), 0.8, 1e-12);
    EXPECT_LT(std::abs(w.samples()[0]), 0.1);
}

TEST(Waveform, IqWaveformFromOptimizer) {
    const std::vector<double> i_samples{0.1, 0.2, 0.3};
    const std::vector<double> q_samples{-0.1, 0.0, 0.1};
    const auto w = iq_waveform(i_samples, q_samples, "opt");
    EXPECT_EQ(w.duration(), 3u);
    EXPECT_NEAR(w.samples()[0].real(), 0.1, 1e-15);
    EXPECT_NEAR(w.samples()[0].imag(), -0.1, 1e-15);
    EXPECT_THROW(iq_waveform({0.1}, {0.1, 0.2}), std::invalid_argument);
}

TEST(Waveform, IqClipOption) {
    // |1.0 + 1.0i| = sqrt(2) > 1: throws without clip, normalizes with clip.
    EXPECT_THROW(iq_waveform({1.0}, {1.0}), std::invalid_argument);
    const auto w = iq_waveform({1.0}, {1.0}, "clipped", /*clip=*/true);
    EXPECT_NEAR(std::abs(w.samples()[0]), 1.0, 1e-12);
}

}  // namespace
}  // namespace qoc::pulse
