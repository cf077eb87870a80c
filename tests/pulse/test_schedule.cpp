#include "pulse/schedule.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <numbers>
#include <vector>

#include "pulse/circuit.hpp"
#include "pulse/instruction_map.hpp"

namespace qoc::pulse {
namespace {

/// A flat pulse of `duration` samples at real amplitude `amp`.
Waveform flat(std::size_t duration, double amp) {
    return Waveform(std::vector<std::complex<double>>(duration, {amp, 0.0}), "flat");
}

Schedule x_gate_schedule(std::size_t duration = 16, std::size_t qubit = 0) {
    Schedule s("x");
    s.insert(0, Play{drag_waveform(duration, {0.5, 0.0}, 0.2), drive_channel(qubit)});
    return s;
}

TEST(Schedule, AppendAdvancesChannelClock) {
    Schedule s;
    s.append(Play{flat(8, 0.1), drive_channel(0)});
    s.append(Play{flat(4, 0.2), drive_channel(0)});
    EXPECT_EQ(s.channel_duration(drive_channel(0)), 12u);
    // A different channel starts at its own zero.
    s.append(Play{flat(2, 0.3), drive_channel(1)});
    EXPECT_EQ(s.channel_duration(drive_channel(1)), 2u);
    EXPECT_EQ(s.total_duration(), 12u);
}

TEST(Schedule, ChannelsListsDistinct) {
    Schedule s;
    s.insert(0, Play{flat(4, 0.1), drive_channel(0)});
    s.insert(0, Play{flat(4, 0.1), control_channel(1)});
    s.insert(4, Acquire{8, acquire_channel(0)});
    EXPECT_EQ(s.channels().size(), 3u);
}

TEST(Schedule, SamplesResolvePlays) {
    Schedule s;
    s.insert(2, Play{flat(3, 0.4), drive_channel(0)});
    const auto samples = s.channel_samples(drive_channel(0), 8);
    EXPECT_EQ(samples.size(), 8u);
    EXPECT_EQ(samples[0], std::complex<double>(0.0, 0.0));
    EXPECT_NEAR(samples[2].real(), 0.4, 1e-15);
    EXPECT_NEAR(samples[4].real(), 0.4, 1e-15);
    EXPECT_EQ(samples[5], std::complex<double>(0.0, 0.0));
}

TEST(Schedule, ShiftPhaseRotatesSubsequentPlays) {
    Schedule s;
    s.append(Play{flat(2, 0.5), drive_channel(0)});
    s.insert(2, ShiftPhase{std::numbers::pi / 2.0, drive_channel(0)});
    s.insert(2, Play{flat(2, 0.5), drive_channel(0)});
    const auto samples = s.channel_samples(drive_channel(0), 4);
    EXPECT_NEAR(samples[0].real(), 0.5, 1e-15);
    EXPECT_NEAR(samples[0].imag(), 0.0, 1e-15);
    // After the frame change the same real pulse appears rotated by pi/2.
    EXPECT_NEAR(samples[2].real(), 0.0, 1e-12);
    EXPECT_NEAR(samples[2].imag(), 0.5, 1e-12);
}

TEST(Schedule, PhaseAccumulates) {
    Schedule s;
    s.insert(0, ShiftPhase{std::numbers::pi / 2.0, drive_channel(0)});
    s.insert(0, ShiftPhase{std::numbers::pi / 2.0, drive_channel(0)});
    s.insert(0, Play{flat(1, 1.0), drive_channel(0)});
    const auto samples = s.channel_samples(drive_channel(0), 1);
    EXPECT_NEAR(samples[0].real(), -1.0, 1e-12);
}

TEST(Schedule, OverlappingPlaysThrow) {
    Schedule s;
    s.insert(0, Play{flat(4, 0.1), drive_channel(0)});
    s.insert(2, Play{flat(4, 0.1), drive_channel(0)});
    EXPECT_THROW(s.channel_samples(drive_channel(0), 8), std::runtime_error);
}

TEST(Schedule, AcquiresReported) {
    Schedule s;
    s.insert(10, Acquire{16, acquire_channel(0)});
    s.insert(10, Acquire{16, acquire_channel(1)});
    const auto acqs = s.acquires();
    ASSERT_EQ(acqs.size(), 2u);
    EXPECT_EQ(acqs[0].first, 10u);
}

TEST(Circuit, BuildsAndValidates) {
    QuantumCircuit qc(2);
    qc.x(0).rz(1, 0.3).cx(0, 1).measure_all();
    EXPECT_EQ(qc.ops().size(), 3u);
    EXPECT_EQ(qc.measurements().size(), 2u);
    EXPECT_THROW(qc.x(2), std::invalid_argument);
    EXPECT_THROW(qc.measure(5), std::invalid_argument);
}

TEST(Circuit, LoweringUsesBackendDefaults) {
    InstructionScheduleMap defaults;
    defaults.add("x", {0}, x_gate_schedule(16));
    QuantumCircuit qc(1);
    qc.x(0).measure(0);
    const Schedule sched = circuit_to_schedule(qc, defaults, 4);
    EXPECT_EQ(sched.total_duration(), 20u);  // 16 pulse + 4 acquire
    EXPECT_EQ(sched.acquires().size(), 1u);
    EXPECT_EQ(sched.acquires()[0].first, 16u);
}

TEST(Circuit, CalibrationShadowsDefault) {
    InstructionScheduleMap defaults;
    defaults.add("x", {0}, x_gate_schedule(16));
    QuantumCircuit qc(1);
    Schedule custom("x_custom");
    custom.insert(0, Play{flat(8, 0.7), drive_channel(0)});
    qc.add_calibration("x", {0}, custom);
    qc.x(0);
    const Schedule sched = circuit_to_schedule(qc, defaults);
    EXPECT_EQ(sched.total_duration(), 8u);  // the custom, shorter pulse won
}

TEST(Circuit, RzBecomesShiftPhase) {
    InstructionScheduleMap defaults;
    QuantumCircuit qc(1);
    qc.rz(0, 0.7);
    const Schedule sched = circuit_to_schedule(qc, defaults);
    ASSERT_EQ(sched.instructions().size(), 1u);
    const auto* sp = std::get_if<ShiftPhase>(&sched.instructions()[0].second);
    ASSERT_NE(sp, nullptr);
    EXPECT_NEAR(sp->phase, -0.7, 1e-15);
    EXPECT_EQ(sched.total_duration(), 0u);  // virtual, zero duration
}

TEST(Circuit, HadamardDecomposesWhenUncalibrated) {
    InstructionScheduleMap defaults;
    defaults.add("sx", {0}, x_gate_schedule(16));
    QuantumCircuit qc(1);
    qc.h(0);
    const Schedule sched = circuit_to_schedule(qc, defaults);
    // rz + sx + rz: one play, two phase shifts.
    std::size_t plays = 0, shifts = 0;
    for (const auto& [t, inst] : sched.instructions()) {
        plays += std::holds_alternative<Play>(inst);
        shifts += std::holds_alternative<ShiftPhase>(inst);
    }
    EXPECT_EQ(plays, 1u);
    EXPECT_EQ(shifts, 2u);
}

TEST(Circuit, MissingGateThrows) {
    InstructionScheduleMap defaults;
    QuantumCircuit qc(1);
    qc.gate("mystery", {0});
    EXPECT_THROW(circuit_to_schedule(qc, defaults), std::runtime_error);
}

TEST(Circuit, GatesOnSameQubitSequence) {
    InstructionScheduleMap defaults;
    defaults.add("x", {0}, x_gate_schedule(16));
    QuantumCircuit qc(1);
    qc.x(0).x(0);
    const Schedule sched = circuit_to_schedule(qc, defaults);
    EXPECT_EQ(sched.total_duration(), 32u);
}

TEST(Circuit, TwoQubitGateAlignsBothQubits) {
    InstructionScheduleMap defaults;
    defaults.add("x", {0}, x_gate_schedule(16, 0));
    Schedule cx("cx");
    cx.insert(0, Play{gaussian_square_waveform(32, {0.3, 0.0}), control_channel(0)});
    cx.insert(0, Play{flat(32, 0.1), drive_channel(1)});
    defaults.add("cx", {0, 1}, cx);

    QuantumCircuit qc(2);
    qc.x(0).cx(0, 1);
    const Schedule sched = circuit_to_schedule(qc, defaults);
    // The CX waits for qubit 0's X pulse even though its own schedule only
    // touches U0 and D1: gates align on all channels of their qubits.
    EXPECT_EQ(sched.total_duration(), 48u);
}

TEST(Circuit, RzShiftsControlChannelFrames) {
    // With U0 locked to qubit 1's frame, rz on qubit 1 must shift both D1
    // and U0.
    FrameConfig frames;
    frames.extra_channels[1] = {control_channel(0)};
    InstructionScheduleMap defaults;
    QuantumCircuit qc(2);
    qc.rz(1, 0.9);
    const Schedule sched = circuit_to_schedule(qc, defaults, 0, frames);
    std::size_t shifts = 0;
    for (const auto& [t, inst] : sched.instructions()) {
        if (const auto* sp = std::get_if<ShiftPhase>(&inst)) {
            EXPECT_NEAR(sp->phase, -0.9, 1e-15);
            ++shifts;
        }
    }
    EXPECT_EQ(shifts, 2u);
}

}  // namespace
}  // namespace qoc::pulse
