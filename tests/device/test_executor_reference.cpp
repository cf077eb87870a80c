/// Cross-method oracle for the executor: its real Hermitian-basis build
/// (affine generator pieces, dedupe, pool fan-out, real Pade and product
/// chain, one conversion back) against the complex standard-basis build of
/// `oracles/executor_reference` (full Lindbladian per sample, complex
/// `expm`, serial product).  The two differ only in rounding, so they must
/// agree to 1e-12 on the default gates, a layer with every channel live and
/// free evolution.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <variant>
#include <vector>

#include "device/calibration.hpp"
#include "oracles/executor_reference.hpp"

namespace qoc::device {
namespace {

using cplx = std::complex<double>;
constexpr double kTol = 1e-12;

class ExecutorReference : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        exec_ = new PulseExecutor(ibmq_montreal());
        defaults_ = new pulse::InstructionScheduleMap(build_default_gates(*exec_));
    }
    static void TearDownTestSuite() {
        delete defaults_;
        delete exec_;
        defaults_ = nullptr;
        exec_ = nullptr;
    }
    static const PulseExecutor& exec() { return *exec_; }
    static const pulse::InstructionScheduleMap& defaults() { return *defaults_; }

private:
    static inline PulseExecutor* exec_ = nullptr;
    static inline pulse::InstructionScheduleMap* defaults_ = nullptr;
};

TEST_F(ExecutorReference, DefaultSingleQubitGatesMatchComplexBuild) {
    const BackendConfig& cfg = exec().config();
    for (std::size_t q = 0; q < 2; ++q) {
        for (const char* gate : {"x", "sx"}) {
            const pulse::Schedule& sched = defaults().get(gate, {q});
            const Mat got = exec().schedule_superop_1q(sched, q);
            const Mat want = oracle::reference_schedule_superop_1q(cfg, sched, q);
            EXPECT_LE((got - want).max_abs(), kTol) << gate << " on qubit " << q;
        }
    }
}

TEST_F(ExecutorReference, DefaultCxWithFramePhasesMatchesComplexBuild) {
    const pulse::Schedule& cx = defaults().get("cx", {0, 1});
    // The default CX closes a virtual-Z frame on the control's drive channel.
    bool has_frame = false;
    for (const auto& [t, inst] : cx.instructions()) {
        has_frame = has_frame || std::holds_alternative<pulse::ShiftPhase>(inst);
    }
    ASSERT_TRUE(has_frame);
    const Mat got = exec().schedule_superop_2q(cx);
    const Mat want = oracle::reference_schedule_superop_2q(exec().config(), cx);
    EXPECT_LE((got - want).max_abs(), kTol);
}

TEST_F(ExecutorReference, ThreeChannelLayerMatchesComplexBuild) {
    // D0, D1 and U0 all live with complex samples, drive noise on both
    // drives, a repeated sample triple and zero-padded tails.
    const BackendConfig& cfg = exec().config();
    ASSERT_GT(cfg.qubit(0).drive_amp_noise, 0.0);
    ASSERT_GT(cfg.qubit(1).drive_amp_noise, 0.0);
    std::vector<cplx> d0, d1, u0;
    for (std::size_t k = 0; k < 40; ++k) {
        const double t = static_cast<double>(k);
        d0.push_back({0.3 * std::sin(0.15 * t), -0.05 * std::cos(0.3 * t)});
        d1.push_back({0.2 * std::cos(0.1 * t), 0.07});
        u0.push_back(std::polar(0.6, 0.02 * t));
    }
    d0[30] = d0[10];
    d1[30] = d1[10];
    u0[30] = u0[10];
    d1.resize(33);
    u0.resize(36);
    const Mat got = exec().layer_superop_2q(d0, d1, u0);
    const Mat want = oracle::reference_layer_superop_2q(cfg, d0, d1, u0);
    EXPECT_LE((got - want).max_abs(), kTol);
}

TEST_F(ExecutorReference, IdleSuperopsMatchComplexBuild) {
    const BackendConfig& cfg = exec().config();
    for (const std::size_t n_dt : {std::size_t{1}, std::size_t{160}, std::size_t{4000}}) {
        for (std::size_t q = 0; q < 2; ++q) {
            EXPECT_LE((exec().idle_superop_1q(n_dt, q) -
                       oracle::reference_idle_superop_1q(cfg, n_dt, q))
                          .max_abs(),
                      kTol)
                << n_dt << " dt on qubit " << q;
        }
        EXPECT_LE((exec().idle_superop_2q(n_dt) - oracle::reference_idle_superop_2q(cfg, n_dt))
                      .max_abs(),
                  kTol)
            << n_dt << " dt on the pair";
    }
}

}  // namespace
}  // namespace qoc::device
