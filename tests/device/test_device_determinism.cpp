/// Pool-size independence of the device layer's parallel builds: the Rabi
/// sweep fans its points out over the task pool and every waveform / layer
/// superop fans out its distinct per-sample propagators, so calibration,
/// default schedules, gate superops and a layer driving D0, D1 and U0 at
/// once must come out bitwise identical at pool size 1 and 4.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "device/calibration.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::device {
namespace {

using cplx = std::complex<double>;

/// Exact bit equality (unlike ==, distinguishes -0.0 from 0.0).
template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Every sample the default x/sx (both qubits) and cx schedules play, on
/// every channel, concatenated in a fixed order.
std::vector<cplx> default_gate_samples(const pulse::InstructionScheduleMap& map) {
    const std::vector<pulse::Channel> channels = {
        pulse::drive_channel(0), pulse::drive_channel(1), pulse::control_channel(0)};
    std::vector<cplx> out;
    auto append = [&](const pulse::Schedule& sched) {
        for (const auto& ch : channels) {
            const auto s = sched.channel_samples(ch, sched.total_duration());
            out.insert(out.end(), s.begin(), s.end());
        }
    };
    for (std::size_t q = 0; q < 2; ++q) {
        append(map.get("x", {q}));
        append(map.get("sx", {q}));
    }
    append(map.get("cx", {0, 1}));
    return out;
}

struct DeviceRun {
    RabiResult rabi;
    std::vector<cplx> schedule_samples;
    Mat x_superop;
    Mat cx_superop;
    Mat layer_superop;  ///< D0, D1 and U0 all live
};

/// A layer with a complex sample on every channel at every step, and one
/// repeated triple, so each channel's affine and noise pieces enter.
Mat three_channel_layer(const PulseExecutor& exec) {
    std::vector<cplx> d0, d1, u0;
    for (std::size_t k = 0; k < 48; ++k) {
        const double t = static_cast<double>(k);
        d0.push_back({0.25 * std::sin(0.2 * t), 0.04 * std::cos(0.1 * t)});
        d1.push_back({-0.15 * std::cos(0.13 * t), -0.03});
        u0.push_back(std::polar(0.5, 0.01 * t));
    }
    d0[40] = d0[3];
    d1[40] = d1[3];
    u0[40] = u0[3];
    return exec.layer_superop_2q(d0, d1, u0);
}

DeviceRun run_at_pool_size(std::size_t pool_size) {
    runtime::ScopedPoolSize scoped(pool_size);
    const PulseExecutor exec(ibmq_montreal());
    DeviceRun run;
    run.rabi = rabi_calibrate(exec, 1);
    const auto defaults = build_default_gates(exec);
    run.schedule_samples = default_gate_samples(defaults);
    run.x_superop = exec.schedule_superop_1q(defaults.get("x", {0}), 0);
    run.cx_superop = exec.schedule_superop_2q(defaults.get("cx", {0, 1}));
    run.layer_superop = three_channel_layer(exec);
    return run;
}

TEST(DeviceDeterminism, CalibrationAndGateSuperopsBitwiseAcrossPoolSizes) {
    const DeviceRun serial = run_at_pool_size(1);
    const DeviceRun pooled = run_at_pool_size(4);

    EXPECT_TRUE(same_bits(serial.rabi.sweep_amps, pooled.rabi.sweep_amps));
    EXPECT_TRUE(same_bits(serial.rabi.sweep_p1, pooled.rabi.sweep_p1));
    EXPECT_TRUE(same_bits(std::vector<double>{serial.rabi.pi_amplitude, serial.rabi.fit_stderr},
                          std::vector<double>{pooled.rabi.pi_amplitude, pooled.rabi.fit_stderr}));
    EXPECT_FALSE(serial.schedule_samples.empty());
    EXPECT_TRUE(same_bits(serial.schedule_samples, pooled.schedule_samples))
        << "build_default_gates schedules differ between pool sizes 1 and 4";
    EXPECT_TRUE(same_bits(serial.x_superop.data(), pooled.x_superop.data()));
    EXPECT_TRUE(same_bits(serial.cx_superop.data(), pooled.cx_superop.data()));
    EXPECT_TRUE(same_bits(serial.layer_superop.data(), pooled.layer_superop.data()));
}

TEST(DeviceDeterminism, NonConsecutiveRepeatsComposeLikeTheirPieces) {
    // A, B, A: the two A blocks share their per-sample propagators (the CR
    // echo's shape), yet the whole must equal the product of the pieces.
    runtime::ScopedPoolSize scoped(4);
    const PulseExecutor exec(ibmq_montreal());
    const std::vector<cplx> a = {{0.1, 0.02}, {0.2, -0.01}, {0.1, 0.02}, {0.3, 0.0}};
    const std::vector<cplx> b = {{-0.15, 0.0}, {0.05, 0.04}};
    std::vector<cplx> aba = a;
    aba.insert(aba.end(), b.begin(), b.end());
    aba.insert(aba.end(), a.begin(), a.end());

    const Mat sa = exec.waveform_superop_1q(a, 0);
    const Mat sb = exec.waveform_superop_1q(b, 0);
    EXPECT_TRUE(exec.waveform_superop_1q(aba, 0).approx_equal(sa * sb * sa, 1e-12));

    // Two-qubit layers: equal-length pieces on all three channels, with the
    // first layer's samples recurring across channels in the second.
    const std::vector<cplx> zeros(a.size());
    const std::vector<cplx> bu = {{0.07, 0.0}, {0.07, 0.0}, {-0.02, 0.01}, {0.0, 0.0}};
    const Mat la = exec.layer_superop_2q(a, zeros, bu);
    const Mat lb = exec.layer_superop_2q(bu, a, zeros);
    auto aba_of = [](const std::vector<cplx>& x, const std::vector<cplx>& y) {
        std::vector<cplx> out = x;
        out.insert(out.end(), y.begin(), y.end());
        out.insert(out.end(), x.begin(), x.end());
        return out;
    };
    const Mat whole = exec.layer_superop_2q(aba_of(a, bu), aba_of(zeros, a), aba_of(bu, zeros));
    EXPECT_TRUE(whole.approx_equal(la * lb * la, 1e-12));
}

}  // namespace
}  // namespace qoc::device
