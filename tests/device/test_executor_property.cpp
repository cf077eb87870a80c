/// Property sweeps over the pulse executor: virtual-Z algebra, split-waveform
/// composition, measurement statistics, and schedule edge cases.

#include <gtest/gtest.h>

#include <numbers>

#include "device/calibration.hpp"
#include "oracles/quantum.hpp"
#include "quantum/gates.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::device {
namespace {

namespace g = quantum::gates;

class ExecutorProperty : public ::testing::Test {
protected:
    static PulseExecutor& exec() {
        static PulseExecutor instance{ibmq_montreal()};
        return instance;
    }
    static const pulse::InstructionScheduleMap& defaults() {
        static pulse::InstructionScheduleMap map = build_default_gates(exec());
        return map;
    }
};

TEST_F(ExecutorProperty, RzSuperopsFormAGroup) {
    // rz(a) rz(b) = rz(a+b); rz(2 pi k) = identity (n-hat convention gives
    // exact 2 pi periodicity on the superoperator).
    for (double a : {0.3, 1.1, -2.0}) {
        for (double b : {0.5, -0.9}) {
            const Mat lhs = exec().rz_superop_1q(a) * exec().rz_superop_1q(b);
            const Mat rhs = exec().rz_superop_1q(a + b);
            EXPECT_TRUE(lhs.approx_equal(rhs, 1e-12));
        }
    }
    EXPECT_TRUE(exec().rz_superop_1q(2.0 * std::numbers::pi)
                    .approx_equal(Mat::identity(9), 1e-12));
}

TEST_F(ExecutorProperty, WaveformSuperopSplitComposes) {
    // Long constant plateaus share one propagator per distinct sample within
    // a call; splitting the same samples into two calls (which shifts which
    // samples are shared) must compose identically.
    std::vector<std::complex<double>> samples(300, {0.1, 0.02});
    for (std::size_t k = 100; k < 200; ++k) samples[k] = {0.05, 0.0};
    const Mat whole = exec().waveform_superop_1q(samples, 0);
    const std::vector<std::complex<double>> first(samples.begin(), samples.begin() + 137);
    const std::vector<std::complex<double>> rest(samples.begin() + 137, samples.end());
    const Mat split = exec().waveform_superop_1q(rest, 0) * exec().waveform_superop_1q(first, 0);
    EXPECT_TRUE(whole.approx_equal(split, 1e-11));
}

TEST_F(ExecutorProperty, IdleSuperopComposes) {
    const Mat two_short = exec().idle_superop_1q(700, 0) * exec().idle_superop_1q(300, 0);
    const Mat one_long = exec().idle_superop_1q(1000, 0);
    EXPECT_TRUE(two_short.approx_equal(one_long, 1e-11));
}

TEST_F(ExecutorProperty, AllGateSuperopsTracePreserving) {
    for (const char* name : {"x", "sx"}) {
        const Mat sup = exec().schedule_superop_1q(defaults().get(name, {0}), 0);
        EXPECT_TRUE(quantum::is_trace_preserving(sup, 1e-8)) << name;
    }
    const Mat cx = exec().schedule_superop_2q(defaults().get("cx", {0, 1}));
    EXPECT_TRUE(quantum::is_trace_preserving(cx, 1e-8));
}

TEST_F(ExecutorProperty, GateSuperopsMapStatesToStates) {
    const Mat sup = exec().schedule_superop_1q(defaults().get("sx", {0}), 0);
    Mat rho = exec().ground_state_1q();
    for (int reps = 0; reps < 8; ++reps) {
        rho = quantum::apply_superop(sup, rho);
        ASSERT_TRUE(oracle::is_density_matrix(rho, 1e-8)) << "rep " << reps;
    }
}

TEST_F(ExecutorProperty, MeasurementStatisticsBinomial) {
    // Shot histograms across seeds must scatter around the analytic
    // probability with ~sqrt(p(1-p)/N) spread.
    pulse::QuantumCircuit qc(1);
    qc.sx(0);
    const Mat rho = simulate_circuit_1q(exec(), qc, defaults(), 0);
    const double p1 = exec().p1_after_readout(rho, 0);
    const int shots = 4096;
    double mean = 0.0, var = 0.0;
    const int trials = 40;
    std::vector<double> vals(trials);
    for (int t = 0; t < trials; ++t) {
        vals[t] = exec().measure_1q(rho, 0, shots, 1000 + t).probability("1");
        mean += vals[t];
    }
    mean /= trials;
    for (double v : vals) var += (v - mean) * (v - mean);
    var /= (trials - 1);
    EXPECT_NEAR(mean, p1, 4.0 * std::sqrt(p1 * (1 - p1) / shots / trials));
    const double expected_var = p1 * (1 - p1) / shots;
    EXPECT_GT(var, 0.3 * expected_var);
    EXPECT_LT(var, 3.0 * expected_var);
}

TEST_F(ExecutorProperty, TwoQubitMeasureMarginalsConsistent) {
    pulse::QuantumCircuit qc(2);
    qc.x(0);
    const Mat rho = simulate_circuit_2q(exec(), qc, defaults());
    const Counts c = exec().measure_2q(rho, 1 << 15, 5);
    // Qubit 0 in |1>, qubit 1 in |0> (up to readout error).
    const double p_q0_one = c.probability("10") + c.probability("11");
    const double p_q1_one = c.probability("01") + c.probability("11");
    EXPECT_GT(p_q0_one, 0.9);
    EXPECT_LT(p_q1_one, 0.1);
}

TEST_F(ExecutorProperty, EmptyScheduleIsIdentity) {
    pulse::Schedule empty("nothing");
    const Mat sup = exec().schedule_superop_1q(empty, 0);
    EXPECT_TRUE(sup.approx_equal(Mat::identity(9), 1e-12));
}

TEST_F(ExecutorProperty, PureShiftPhaseScheduleIsVirtualZ) {
    pulse::Schedule sp("rz_only");
    sp.insert(0, pulse::ShiftPhase{-0.8, pulse::drive_channel(0)});  // rz(+0.8)
    const Mat sup = exec().schedule_superop_1q(sp, 0);
    EXPECT_TRUE(sup.approx_equal(exec().rz_superop_1q(0.8), 1e-12));
}

}  // namespace
}  // namespace qoc::device
