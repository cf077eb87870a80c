#include "experiments/gate_designer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "device/calibration.hpp"
#include "quantum/fidelity.hpp"
#include "quantum/gates.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::experiments {
namespace {

namespace g = quantum::gates;

TEST(AmpsToSchedule, BuildsClippedIqWaveform) {
    control::ControlAmplitudes amps{{0.5, 0.1}, {0.9, 0.9}};  // second slot |s|>1
    const auto sched = amps_to_schedule(amps, 0, 1, 8, pulse::drive_channel(0), "t");
    const auto samples = sched.channel_samples(pulse::drive_channel(0), 8);
    EXPECT_NEAR(samples[0].real(), 0.5, 1e-12);
    EXPECT_NEAR(samples[0].imag(), 0.1, 1e-12);
    // Clipped to the unit disc.
    EXPECT_LE(std::abs(samples[7]), 1.0 + 1e-12);
    EXPECT_EQ(sched.total_duration(), 8u);
}

TEST(AmpsToSchedule, SingleControlHasZeroQuadrature) {
    control::ControlAmplitudes amps{{0.3}, {0.4}};
    const auto sched = amps_to_schedule(amps, 0, SIZE_MAX, 4, pulse::drive_channel(0), "t");
    const auto samples = sched.channel_samples(pulse::drive_channel(0), 4);
    for (const auto& s : samples) EXPECT_NEAR(s.imag(), 0.0, 1e-15);
}

class DesignerTest : public ::testing::Test {
protected:
    static const device::BackendConfig& nominal() {
        static device::BackendConfig cfg = device::nominal_model(device::ibmq_montreal());
        return cfg;
    }
};

TEST_F(DesignerTest, XGateLongPulseOpenSystem) {
    // The paper's X setup: 480 dt, X+Y controls, T1 decoherence in the model.
    GateDesignSpec spec;
    spec.target = g::x();
    spec.duration_dt = 480;
    spec.n_timeslots = 32;
    spec.model = DesignModel::kThreeLevelOpen;
    const auto designed = design_1q_gate(nominal(), 0, "x", spec);
    EXPECT_LT(designed.model_fid_err, 1e-3);
    EXPECT_EQ(designed.schedule.total_duration(), 480u);

    // Executing the design on the (nominal) device must flip the qubit.
    device::PulseExecutor exec(nominal());
    const auto sup = exec.schedule_superop_1q(designed.schedule, 0);
    const auto rho = quantum::apply_superop(sup, exec.ground_state_1q());
    EXPECT_GT(rho(1, 1).real(), 0.995);
}

TEST_F(DesignerTest, SxGateSingleControlClosed) {
    // The paper's sqrt(X): single X control, decoherence dropped.
    GateDesignSpec spec;
    spec.target = g::sx();
    spec.duration_dt = 736;
    spec.n_timeslots = 32;
    spec.use_y_control = false;
    spec.model = DesignModel::kThreeLevelClosed;
    const auto designed = design_1q_gate(nominal(), 0, "sx", spec);
    // The energy regularizer trades a little model fidelity for gentleness.
    EXPECT_LT(designed.model_fid_err, 1e-4);

    device::PulseExecutor exec(nominal());
    const auto sup = exec.schedule_superop_1q(designed.schedule, 0);
    const auto rho = quantum::apply_superop(sup, exec.ground_state_1q());
    EXPECT_NEAR(rho(1, 1).real(), 0.5, 0.01);
}

TEST_F(DesignerTest, ShortXThreeLevelAware) {
    // Table-2 style short pulse on the leakage-aware 3-level model.
    GateDesignSpec spec;
    spec.target = g::x();
    spec.duration_dt = 256;
    spec.n_timeslots = 32;
    spec.model = DesignModel::kThreeLevelClosed;
    const auto designed = design_1q_gate(nominal(), 0, "x", spec);
    EXPECT_LT(designed.model_fid_err, 1e-6);

    device::PulseExecutor exec(nominal());
    const auto sup = exec.schedule_superop_1q(designed.schedule, 0);
    const auto rho = quantum::apply_superop(sup, exec.ground_state_1q());
    EXPECT_GT(rho(1, 1).real(), 0.995);
    EXPECT_LT(rho(2, 2).real(), 1e-3);  // negligible leakage
}

TEST_F(DesignerTest, CxChannelFaithful) {
    CxDesignSpec spec;
    spec.n_timeslots = 32;
    spec.max_iterations = 800;
    const auto designed = design_cx_gate(nominal(), spec);
    // Model floor ~2e-3: the U0 classical crosstalk (XI term) cannot be
    // cancelled without driving D0, which the energy budget forbids.
    EXPECT_LT(designed.model_fid_err, 5e-3);

    device::PulseExecutor exec(nominal());
    const auto sup = exec.schedule_superop_2q(designed.schedule);
    const double f = quantum::average_gate_fidelity_superop(g::cx(), sup);
    // Drive-amplitude noise (unknown to the design model) costs ~1e-2.
    EXPECT_GT(f, 0.94);
}

TEST_F(DesignerTest, CxIdealizedControlsConvergeBetterOnModel) {
    // The idealized three-term controls (paper's Eq. 3 reading) converge on
    // the model but lose fidelity when mapped to real channels.
    CxDesignSpec ideal;
    ideal.idealized_controls = true;
    ideal.duration_dt = 800;
    ideal.n_timeslots = 32;
    const auto designed = design_cx_gate(nominal(), ideal);
    EXPECT_LT(designed.model_fid_err, 1e-4);

    device::PulseExecutor exec(nominal());
    const auto sup = exec.schedule_superop_2q(designed.schedule);
    const double f = quantum::average_gate_fidelity_superop(g::cx(), sup);
    // On hardware the U0 channel drags IX/XI along: fidelity drops well
    // below the model prediction.
    EXPECT_LT(f, 1.0 - designed.model_fid_err);
}

}  // namespace
}  // namespace qoc::experiments
