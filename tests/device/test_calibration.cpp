#include "device/calibration.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::device {
namespace {

TEST(Rabi, RecoversPiAmplitude) {
    // On a clean device the pi amplitude must satisfy
    // amp * Omega_max * gaussian_area = pi (small DRAG corrections aside).
    BackendConfig cfg = ibmq_montreal();
    for (auto& q : cfg.qubits) {
        q.t1 = 1e9;
        q.t2 = 1e9;
        q.readout_p01 = 0.0;
        q.readout_p10 = 0.0;
    }
    PulseExecutor exec(cfg);
    RabiOptions opts;
    opts.shots = 100000;  // nearly noise-free calibration
    const auto rabi = rabi_calibrate(exec, 0, opts);

    const double area = 0.25 * 160 * cfg.dt * std::sqrt(2.0 * M_PI);  // sigma*sqrt(2pi)
    const double expected = M_PI / (cfg.qubit(0).omega_max * area);
    EXPECT_NEAR(rabi.pi_amplitude, expected, 0.05 * expected);
}

TEST(Rabi, TracksAmplitudeScaleDrift) {
    // If the device applies 5% more drive than commanded, the calibrated
    // amplitude must come out ~5% lower -- that is the point of daily
    // recalibration.
    BackendConfig cfg = ibmq_montreal();
    PulseExecutor nominal_exec(cfg);
    const double amp_nominal = rabi_calibrate(nominal_exec, 0).pi_amplitude;

    cfg.qubits[0].amp_scale = 1.05;
    PulseExecutor drifted_exec(cfg);
    const double amp_drifted = rabi_calibrate(drifted_exec, 0).pi_amplitude;
    EXPECT_NEAR(amp_drifted / amp_nominal, 1.0 / 1.05, 0.01);
}

TEST(Rabi, SweepDataExposed) {
    PulseExecutor exec(ibmq_montreal());
    const auto rabi = rabi_calibrate(exec, 0);
    EXPECT_EQ(rabi.sweep_amps.size(), rabi.sweep_p1.size());
    EXPECT_GT(rabi.sweep_amps.size(), 10u);
    // P1 starts near 0 at tiny amplitude.
    EXPECT_LT(rabi.sweep_p1.front(), 0.2);
}

TEST(Rabi, FitStderrMatchesSeedToSeedSpread) {
    // Independent oracle for the propagated 1-sigma error: repeat the
    // calibration under 16 fixed shot seeds and compare the mean reported
    // stderr with the empirical standard deviation of the fitted pi
    // amplitude.  Run r uses point seeds 7 + 40 r ... 7 + 40 r + 39, the
    // default seed's sequence cut into disjoint blocks, so no two runs share
    // shot noise.  Ratios here: 1.54 with the errors added in quadrature,
    // 2.11 when they are added linearly.
    const PulseExecutor exec(ibmq_montreal());
    constexpr int kRuns = 16;
    std::vector<double> amps, stderrs;
    for (int r = 0; r < kRuns; ++r) {
        RabiOptions opts;
        opts.seed = 7 + static_cast<std::uint64_t>(opts.n_points * r);
        const auto rabi = rabi_calibrate(exec, 0, opts);
        amps.push_back(rabi.pi_amplitude);
        stderrs.push_back(rabi.fit_stderr);
    }
    double mean_amp = 0.0, mean_stderr = 0.0;
    for (int r = 0; r < kRuns; ++r) {
        mean_amp += amps[r] / kRuns;
        mean_stderr += stderrs[r] / kRuns;
    }
    double var = 0.0;
    for (const double a : amps) var += (a - mean_amp) * (a - mean_amp) / (kRuns - 1);
    const double ratio = mean_stderr / std::sqrt(var);
    RecordProperty("stderr_over_spread", std::to_string(ratio));
    EXPECT_GE(ratio, 0.5);
    EXPECT_LE(ratio, 2.0);
}

TEST(DefaultGates, MapContainsBasisGates) {
    PulseExecutor exec(ibmq_montreal());
    const auto map = build_default_gates(exec);
    EXPECT_TRUE(map.has("x", {0}));
    EXPECT_TRUE(map.has("sx", {0}));
    EXPECT_TRUE(map.has("x", {1}));
    EXPECT_TRUE(map.has("cx", {0, 1}));
    EXPECT_FALSE(map.has("cx", {1, 0}));
}

TEST(DefaultGates, XPreparesExcitedState) {
    PulseExecutor exec(ibmq_montreal());
    const auto map = build_default_gates(exec);
    const Mat sup = exec.schedule_superop_1q(map.get("x", {0}), 0);
    const Mat rho = quantum::apply_superop(sup, exec.ground_state_1q());
    EXPECT_GT(rho(1, 1).real(), 0.995);
}

TEST(DefaultGates, SxPreparesEqualSuperposition) {
    PulseExecutor exec(ibmq_montreal());
    const auto map = build_default_gates(exec);
    const Mat sup = exec.schedule_superop_1q(map.get("sx", {0}), 0);
    const Mat rho = quantum::apply_superop(sup, exec.ground_state_1q());
    // The default sx deliberately carries a few-percent amplitude error
    // (see DefaultGateOptions::sx_amp_relative_error).
    EXPECT_NEAR(rho(0, 0).real(), 0.5, 0.06);
    EXPECT_NEAR(rho(1, 1).real(), 0.5, 0.06);
}

TEST(DefaultGates, DragBetaPositiveForNegativeAnharmonicity) {
    const auto cfg = ibmq_montreal();
    const double beta = default_drag_beta(cfg, 0, 160);
    EXPECT_GT(beta, 0.0);
    EXPECT_LT(beta, 0.2);
    // Shorter pulses need proportionally larger beta.
    EXPECT_GT(default_drag_beta(cfg, 0, 80), beta);
}

TEST(DefaultGates, DefaultDurationMatchesIbm) {
    PulseExecutor exec(ibmq_montreal());
    const auto map = build_default_gates(exec);
    EXPECT_EQ(map.get("x", {0}).total_duration(), 160u);  // 160 dt ~ 35.5 ns
}

}  // namespace
}  // namespace qoc::device
