#include "rb/rb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "device/calibration.hpp"
#include "oracles/channels.hpp"
#include "quantum/fidelity.hpp"
#include "quantum/gates.hpp"
#include "quantum/superop.hpp"

namespace qoc::rb {
namespace {

namespace g = quantum::gates;

const Clifford1Q& c1() {
    static Clifford1Q instance;
    return instance;
}

device::BackendConfig test_device() {
    auto cfg = device::ibmq_montreal();
    return cfg;
}

TEST(RbFit, RecoversKnownDecay) {
    RbCurve curve;
    const double A = 0.48, alpha = 0.997, B = 0.5;
    for (std::size_t m : {1u, 20u, 50u, 100u, 200u, 400u, 800u}) {
        RbPoint pt;
        pt.length = m;
        pt.mean_survival = A * std::pow(alpha, m) + B;
        pt.sem = 1e-4;
        curve.points.push_back(pt);
    }
    fit_rb_curve(curve, 2.0);
    EXPECT_NEAR(curve.alpha, alpha, 1e-5);
    EXPECT_NEAR(curve.epc, 0.5 * (1.0 - alpha), 1e-5);
}

TEST(RbFit, NeedsEnoughPoints) {
    RbCurve curve;
    curve.points.push_back({1, 0.9, 0.01});
    EXPECT_THROW(fit_rb_curve(curve, 2.0), std::invalid_argument);
}

TEST(Rb1Q, DepolarizingNoiseRecovered) {
    // Inject a known depolarizing error per Clifford on an otherwise ideal
    // gate set; RB must recover EPC = (d-1)/d * p_dep... with the exact
    // relation epc = p/2 for depolarizing probability p on d=2.
    device::BackendConfig cfg = test_device();
    for (auto& q : cfg.qubits) {
        q.t1 = 1e12;
        q.t2 = 1e12;
        q.readout_p01 = 0.0;
        q.readout_p10 = 0.0;
    }
    cfg.levels = 2;
    device::PulseExecutor exec(cfg);

    // Ideal Clifford superops with injected depolarizing channel: build a
    // fake GateSet via the public API by constructing ideal x/sx schedules?
    // Simpler: use the real calibrated gates on the noise-free device and
    // interleave depolarizing noise by hand through run_irb... Instead we
    // test the full pipeline below; here test the estimator math directly.
    const double p = 0.002;
    const Mat dep = oracle::depolarizing_superop(2, p);
    RbCurve curve;
    // Analytic survival: each Clifford applies dep once; after m+1 gates
    // starting from |0>: P0 = (1-p)^{m+1} + (1 - (1-p)^{m+1})/2.
    for (std::size_t m : {1u, 10u, 50u, 100u, 200u, 400u}) {
        const double keep = std::pow(1.0 - p, static_cast<double>(m + 1));
        RbPoint pt;
        pt.length = m;
        pt.mean_survival = keep + 0.5 * (1.0 - keep);
        pt.sem = 1e-5;
        curve.points.push_back(pt);
    }
    fit_rb_curve(curve, 2.0);
    EXPECT_NEAR(curve.alpha, 1.0 - p, 1e-6);
    EXPECT_NEAR(curve.epc, 0.5 * p, 1e-6);
    (void)exec;
    (void)dep;
}

class RbPipeline : public ::testing::Test {
protected:
    static device::PulseExecutor& exec() {
        static device::PulseExecutor instance{test_device()};
        return instance;
    }
    static const pulse::InstructionScheduleMap& defaults() {
        static pulse::InstructionScheduleMap map = device::build_default_gates(exec());
        return map;
    }
};

TEST_F(RbPipeline, StandardRbProducesDecayingCurve) {
    GateSet1Q gates(exec(), defaults(), 0, c1());
    RbOptions opts;
    opts.lengths = {1, 50, 150, 300, 600};
    opts.seeds_per_length = 4;
    opts.shots = 2048;
    const RbCurve curve = run_rb_1q(exec(), gates, 0, opts);

    // Survival decreases with length.
    EXPECT_GT(curve.points.front().mean_survival, curve.points.back().mean_survival);
    // alpha in a physical range and EPC at the paper's 1e-4..1e-3 scale.
    EXPECT_GT(curve.alpha, 0.995);
    EXPECT_LT(curve.alpha, 1.0);
    EXPECT_GT(curve.epc, 2e-5);
    EXPECT_LT(curve.epc, 3e-3);
}

TEST_F(RbPipeline, IrbGateErrorMatchesDirectFidelity) {
    // Interleave the default X gate; the IRB gate error must agree with the
    // directly computed average gate infidelity to within error bars scale.
    GateSet1Q gates(exec(), defaults(), 0, c1());
    const Mat x_super = exec().schedule_superop_1q(defaults().get("x", {0}), 0);
    const std::size_t x_index = c1().find(g::x());

    RbOptions opts;
    opts.lengths = {1, 200, 500, 1000, 2000, 3000};
    opts.seeds_per_length = 8;
    opts.shots = 8192;
    const IrbResult irb = run_irb_1q(exec(), gates, 0, x_super, x_index, opts);

    Mat x_full = Mat::identity(exec().config().levels);
    x_full.set_block(0, 0, g::x());
    const double direct_err = 1.0 - quantum::average_gate_fidelity_superop(x_full, x_super);

    EXPECT_GT(irb.gate_error, 3.0 * irb.gate_error_err);  // clearly resolved
    // IRB is a depolarizing-model estimate; for coherent/leakage-tinged
    // noise it agrees with the direct average-gate infidelity to within a
    // small factor (Magesan et al. discuss the systematic bounds).
    EXPECT_GT(irb.gate_error, direct_err / 4.0);
    EXPECT_LT(irb.gate_error, direct_err * 4.0);
    // Interleaved curve decays faster than the reference.
    EXPECT_LT(irb.interleaved.alpha, irb.reference.alpha);
}

TEST_F(RbPipeline, ReproducibleWithSameSeed) {
    GateSet1Q gates(exec(), defaults(), 0, c1());
    RbOptions opts;
    opts.lengths = {1, 100, 300};
    opts.seeds_per_length = 3;
    const RbCurve a = run_rb_1q(exec(), gates, 0, opts);
    const RbCurve b = run_rb_1q(exec(), gates, 0, opts);
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.points[i].mean_survival, b.points[i].mean_survival);
    }
}

TEST_F(RbPipeline, TwoQubitRbRuns) {
    static Clifford2Q c2(c1());
    GateSet2Q gates(exec(), defaults(), c2);
    RbOptions opts;
    opts.lengths = {1, 5, 10, 20, 35};
    opts.seeds_per_length = 3;
    opts.shots = 2048;
    const RbCurve curve = run_rb_2q(exec(), gates, opts);
    EXPECT_GT(curve.points.front().mean_survival, curve.points.back().mean_survival);
    EXPECT_GT(curve.alpha, 0.9);
    EXPECT_LT(curve.alpha, 1.0);
    // 2Q EPC at the paper's 1e-3..1e-2 scale.
    EXPECT_GT(curve.epc, 5e-4);
    EXPECT_LT(curve.epc, 6e-2);
}

/// Mean reported `gate_error_err` over the sample sd of `gate_error` across
/// independent `rng_seed`s.
template <typename RunIrb>
double irb_stderr_over_spread(int runs, RunIrb&& run_irb) {
    std::vector<double> errors, stderrs;
    for (int r = 0; r < runs; ++r) {
        const IrbResult irb = run_irb(static_cast<std::uint64_t>(r));
        errors.push_back(irb.gate_error);
        stderrs.push_back(irb.gate_error_err);
    }
    double mean = 0.0, mean_stderr = 0.0;
    for (int r = 0; r < runs; ++r) {
        mean += errors[r] / runs;
        mean_stderr += stderrs[r] / runs;
    }
    double var = 0.0;
    for (const double e : errors) var += (e - mean) * (e - mean) / (runs - 1);
    return mean_stderr / std::sqrt(var);
}

TEST(Rb, IrbStderrMatchesSeedToSeedSpread) {
    // Independent oracle for the IRB error bar: repeat the default-gate IRB
    // under independent rng_seeds (every (length, seed) stream is
    // rng_seed + k * prime, so runs r = 0..N-1 share no stream) and compare
    // the mean reported gate_error_err with the empirical sd of gate_error.
    // The paper's seed counts and shots with every length halved, so the
    // test runs in well under a second in Release; ratios here: 0.95 (X)
    // and 0.93 (CX).  The 2Q case is also the statistical guard on the
    // multinomial readout sampler.
    constexpr int kRuns = 24;
    const device::PulseExecutor exec(device::ibmq_montreal());
    const auto defaults = device::build_default_gates(exec);

    const GateSet1Q gates1q(exec, defaults, 0, c1());
    const Mat x_super = exec.schedule_superop_1q(defaults.get("x", {0}), 0);
    const std::size_t x_index = c1().find(g::x());
    const double ratio_1q = irb_stderr_over_spread(kRuns, [&](std::uint64_t seed) {
        RbOptions opts;
        opts.lengths = {1, 100, 250, 500, 900, 1400, 2000};
        opts.seeds_per_length = 16;
        opts.shots = 8192;
        opts.rng_seed = seed;
        return run_irb_1q(exec, gates1q, 0, x_super, x_index, opts);
    });

    static const Clifford2Q c2(c1());
    const GateSet2Q gates2q(exec, defaults, c2);
    const Mat cx_super = exec.schedule_superop_2q(defaults.get("cx", {0, 1}));
    const std::size_t cx_index = c2.find(g::cx());
    const double ratio_2q = irb_stderr_over_spread(kRuns, [&](std::uint64_t seed) {
        RbOptions opts;
        opts.lengths = {1, 4, 8, 16, 28, 44, 64};
        opts.seeds_per_length = 12;
        opts.shots = 8192;
        opts.rng_seed = seed;
        return run_irb_2q_with_reference(exec, gates2q, run_rb_2q(exec, gates2q, opts),
                                         cx_super, cx_index, opts);
    });

    RecordProperty("x_stderr_over_spread", std::to_string(ratio_1q));
    RecordProperty("cx_stderr_over_spread", std::to_string(ratio_2q));
    EXPECT_GE(ratio_1q, 0.5);
    EXPECT_LE(ratio_1q, 2.0);
    EXPECT_GE(ratio_2q, 0.5);
    EXPECT_LE(ratio_2q, 2.0);
}

TEST(Rb, IrbRejectsMisSizedInterleavedSuperop) {
    // The interleaved superop is checked once, before any seed block runs:
    // a 2Q-sized operator against the 1Q (3-level, 9x9) set, a 1Q-sized one
    // against the 2Q (16x16) set and a non-square one are all refused.
    const device::PulseExecutor exec(device::ibmq_montreal());
    const auto defaults = device::build_default_gates(exec);
    ASSERT_EQ(exec.config().levels, 3u);
    const GateSet1Q gates1q(exec, defaults, 0, c1());
    static const Clifford2Q c2(c1());
    const GateSet2Q gates2q(exec, defaults, c2);
    const Mat x_super = exec.schedule_superop_1q(defaults.get("x", {0}), 0);
    const Mat cx_super = exec.schedule_superop_2q(defaults.get("cx", {0, 1}));
    ASSERT_EQ(x_super.rows(), 9u);
    ASSERT_EQ(cx_super.rows(), 16u);
    RbOptions opts;
    opts.lengths = {1, 2, 3};
    opts.seeds_per_length = 2;
    const RbCurve reference;

    EXPECT_THROW(run_irb_1q_with_reference(exec, gates1q, 0, reference, cx_super,
                                           c1().find(g::x()), opts),
                 std::invalid_argument);
    EXPECT_THROW(run_irb_1q_with_reference(exec, gates1q, 0, reference, Mat(9, 4),
                                           c1().find(g::x()), opts),
                 std::invalid_argument);
    EXPECT_THROW(run_irb_2q_with_reference(exec, gates2q, reference, x_super,
                                           c2.find(g::cx()), opts),
                 std::invalid_argument);
}

}  // namespace
}  // namespace qoc::rb
