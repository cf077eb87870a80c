/// Observability must not perturb the numerics: with tracing, metrics and
/// telemetry all enabled, GRAPE pulses and RB survival curves must be
/// BIT-identical to the instrumentation-off run.  Guards the obs design
/// rule that spans/counters only read values the engines already computed
/// and never synchronize or reorder the compute threads.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "control/grape.hpp"
#include "device/calibration.hpp"
#include "obs/obs.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "rb/rb.hpp"

namespace qoc {
namespace {

/// Scoped obs activation writing to throwaway temp files.
class ObsOnScope {
public:
    ObsOnScope() {
        obs::reset_for_testing();
        trace_path_ = ::testing::TempDir() + "qoc_obs_det_trace.json";
        metrics_path_ = ::testing::TempDir() + "qoc_obs_det_metrics.jsonl";
        obs::enable_tracing(trace_path_);
        obs::enable_metrics(metrics_path_);
    }
    ~ObsOnScope() {
        obs::reset_for_testing();
        std::remove(trace_path_.c_str());
        std::remove(metrics_path_.c_str());
    }

private:
    std::string trace_path_, metrics_path_;
};

control::GrapeProblem transmon_problem(std::size_t n_ts) {
    control::GrapeProblem p;
    p.system.drift = quantum::duffing_drift(3, 0.0, -2.0);
    p.system.ctrls = {0.5 * quantum::drive_x(3), 0.5 * quantum::drive_y(3)};
    p.target = quantum::gates::x();
    p.subspace_isometry = quantum::qubit_isometry(3);
    p.n_timeslots = n_ts;
    p.evo_time = static_cast<double>(n_ts) * 0.25;
    p.fidelity = control::FidelityType::kPsu;
    p.initial_amps.resize(n_ts);
    for (std::size_t k = 0; k < n_ts; ++k) {
        const double t = static_cast<double>(k) / static_cast<double>(n_ts);
        p.initial_amps[k] = {0.3 * t, 0.2 * (1.0 - t)};
    }
    return p;
}

void expect_amps_bitwise_equal(const control::ControlAmplitudes& a,
                               const control::ControlAmplitudes& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(a[k].size(), b[k].size());
        for (std::size_t j = 0; j < a[k].size(); ++j) {
            EXPECT_EQ(a[k][j], b[k][j]) << "k=" << k << " j=" << j;  // bitwise
        }
    }
}

TEST(ObsDeterminism, GrapeBitIdenticalWithObsOn) {
    const control::GrapeProblem p = transmon_problem(16);
    const optim::SolverOptions opts{.max_iterations = 12};

    obs::reset_for_testing();
    const control::GrapeResult off = control::grape_lbfgsb(p, opts);

    control::GrapeResult on;
    {
        ObsOnScope scope;
        on = control::grape_lbfgsb(p, opts);
    }

    EXPECT_EQ(off.final_fid_err, on.final_fid_err);
    expect_amps_bitwise_equal(off.final_amps, on.final_amps);
    // The per-iteration records are the same with telemetry on or off.
    ASSERT_EQ(off.iteration_records.size(), on.iteration_records.size());
    for (std::size_t i = 0; i < off.iteration_records.size(); ++i) {
        EXPECT_EQ(off.iteration_records[i].cost, on.iteration_records[i].cost) << "i=" << i;
        EXPECT_EQ(off.iteration_records[i].n_fun_evals, on.iteration_records[i].n_fun_evals)
            << "i=" << i;
    }
}

TEST(ObsDeterminism, Rb1qBitIdenticalWithObsOn) {
    device::PulseExecutor exec{device::ibmq_montreal()};
    const pulse::InstructionScheduleMap defaults = device::build_default_gates(exec);
    const rb::Clifford1Q c1;
    const rb::GateSet1Q gates(exec, defaults, 0, c1);
    rb::RbOptions opts;
    opts.lengths = {1, 16, 32};
    opts.seeds_per_length = 4;
    opts.shots = 1024;

    obs::reset_for_testing();
    const rb::RbCurve off = rb::run_rb_1q(exec, gates, 0, opts);

    rb::RbCurve on;
    {
        ObsOnScope scope;
        on = rb::run_rb_1q(exec, gates, 0, opts);
    }

    ASSERT_EQ(off.points.size(), on.points.size());
    for (std::size_t i = 0; i < off.points.size(); ++i) {
        EXPECT_EQ(off.points[i].mean_survival, on.points[i].mean_survival) << "i=" << i;
        EXPECT_EQ(off.points[i].sem, on.points[i].sem) << "i=" << i;
    }
    EXPECT_EQ(off.alpha, on.alpha);
    EXPECT_EQ(off.epc, on.epc);
}

TEST(ObsDeterminism, Irb2qBitIdenticalWithObsOnAndReplayed) {
    // The 2Q engine's layered superop builds and multinomial readout under
    // obs on vs off, and on a replay with a fresh gate set.
    device::PulseExecutor exec{device::ibmq_montreal()};
    const pulse::InstructionScheduleMap defaults = device::build_default_gates(exec);
    const rb::Clifford1Q c1;
    const rb::Clifford2Q c2(c1);
    const linalg::Mat cx_super = exec.schedule_superop_2q(defaults.get("cx", {0, 1}));
    const std::size_t cx_index = c2.find(quantum::gates::cx());
    rb::RbOptions opts;
    opts.lengths = {1, 4, 8};
    opts.seeds_per_length = 6;
    opts.shots = 1024;
    const auto run = [&] {
        const rb::GateSet2Q gates(exec, defaults, c2);
        return rb::run_irb_2q(exec, gates, cx_super, cx_index, opts);
    };

    obs::reset_for_testing();
    const rb::IrbResult off = run();
    const rb::IrbResult replay = run();
    rb::IrbResult on;
    {
        ObsOnScope scope;
        on = run();
    }

    for (const rb::IrbResult* other : {&replay, static_cast<const rb::IrbResult*>(&on)}) {
        for (const auto& [a, b] : {std::pair{&off.reference, &other->reference},
                                   std::pair{&off.interleaved, &other->interleaved}}) {
            ASSERT_EQ(a->points.size(), b->points.size());
            for (std::size_t i = 0; i < a->points.size(); ++i) {
                EXPECT_EQ(a->points[i].mean_survival, b->points[i].mean_survival) << "i=" << i;
                EXPECT_EQ(a->points[i].sem, b->points[i].sem) << "i=" << i;
            }
            EXPECT_EQ(a->alpha, b->alpha);
        }
        EXPECT_EQ(off.gate_error, other->gate_error);
        EXPECT_EQ(off.gate_error_err, other->gate_error_err);
    }
}

}  // namespace
}  // namespace qoc
