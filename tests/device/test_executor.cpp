#include "device/executor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "device/calibration.hpp"
#include "linalg/kron.hpp"
#include "quantum/fidelity.hpp"
#include "quantum/gates.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::device {
namespace {

using pulse::drag_waveform;
using pulse::drive_channel;
using pulse::Play;
using pulse::Schedule;
using pulse::ShiftPhase;

/// A clean device: no drift, generous coherence for unit-test determinism.
BackendConfig clean_device() {
    BackendConfig b = ibmq_montreal();
    for (auto& q : b.qubits) {
        q.t1 = 1e9;  // effectively closed system
        q.t2 = 1e9;
        q.readout_p01 = 0.0;
        q.readout_p10 = 0.0;
    }
    b.cr.zz_static = 0.0;
    b.cr.classical_crosstalk = 0.0;
    return b;
}

/// Expects `call` to throw `std::invalid_argument` whose message contains
/// `needle`.
template <class F>
void expect_invalid_argument(F&& call, const std::string& needle) {
    try {
        call();
        ADD_FAILURE() << "accepted bad input; expected an error naming " << needle;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    } catch (const std::exception& e) {
        ADD_FAILURE() << "expected an error naming " << needle << ", got: " << e.what();
    }
}

TEST(Executor, IdleGroundStateStaysPut) {
    PulseExecutor exec(ibmq_montreal());
    const Mat sup = exec.idle_superop_1q(1000, 0);
    const Mat rho = quantum::apply_superop(sup, exec.ground_state_1q());
    EXPECT_NEAR(rho(0, 0).real(), 1.0, 1e-9);
}

TEST(Executor, ExcitedStateDecaysAtT1) {
    BackendConfig cfg = ibmq_montreal();
    PulseExecutor exec(cfg);
    const std::size_t n_dt = 45000;  // 10 us
    const double t = n_dt * cfg.dt;
    const Mat sup = exec.idle_superop_1q(n_dt, 0);
    Mat rho1(cfg.levels, cfg.levels);
    rho1(1, 1) = 1.0;
    const Mat rho = quantum::apply_superop(sup, rho1);
    EXPECT_NEAR(rho(1, 1).real(), std::exp(-t / cfg.qubit(0).t1), 1e-6);
}

TEST(Executor, CoherenceDecaysAtT2) {
    BackendConfig cfg = ibmq_montreal();
    PulseExecutor exec(cfg);
    const std::size_t n_dt = 45000;
    const double t = n_dt * cfg.dt;
    const Mat sup = exec.idle_superop_1q(n_dt, 0);
    Mat rho(cfg.levels, cfg.levels);
    rho(0, 0) = 0.5;
    rho(1, 1) = 0.5;
    rho(0, 1) = 0.5;
    rho(1, 0) = 0.5;
    const Mat out = quantum::apply_superop(sup, rho);
    EXPECT_NEAR(std::abs(out(0, 1)), 0.5 * std::exp(-t / cfg.qubit(0).t2), 1e-6);
}

TEST(Executor, CalibratedPiPulseFlipsQubit) {
    PulseExecutor exec(clean_device());
    const auto rabi = rabi_calibrate(exec, 0);
    const double beta = default_drag_beta(exec.config(), 0, 160);
    const auto wf = drag_waveform(160, {rabi.pi_amplitude, 0.0}, beta);
    const Mat sup = exec.waveform_superop_1q(wf.samples(), 0);
    const Mat rho = quantum::apply_superop(sup, exec.ground_state_1q());
    EXPECT_GT(rho(1, 1).real(), 0.999);
}

TEST(Executor, DragBeatsPlainGaussian) {
    // The DRAG quadrature cancels the third-level-induced phase error: the
    // pi pulse transfers more population to |1> than the plain Gaussian.
    PulseExecutor exec(clean_device());
    const auto rabi = rabi_calibrate(exec, 0);
    const double beta = default_drag_beta(exec.config(), 0, 160);

    const auto drag = drag_waveform(160, {rabi.pi_amplitude, 0.0}, beta);
    const auto plain = drag_waveform(160, {rabi.pi_amplitude, 0.0}, 0.0);
    const Mat rho_drag = quantum::apply_superop(exec.waveform_superop_1q(drag.samples(), 0),
                                                exec.ground_state_1q());
    const Mat rho_plain = quantum::apply_superop(exec.waveform_superop_1q(plain.samples(), 0),
                                                 exec.ground_state_1q());
    const double err_drag = 1.0 - rho_drag(1, 1).real();
    const double err_plain = 1.0 - rho_plain(1, 1).real();
    EXPECT_LT(err_drag, 0.5 * err_plain);
}

TEST(Executor, RzSuperopMatchesIdealRotation) {
    PulseExecutor exec(clean_device());
    const double theta = 0.7;
    const Mat sup = exec.rz_superop_1q(theta);
    // On the qubit subspace it must act as RZ(theta).
    Mat rho(3, 3);
    rho(0, 0) = 0.5;
    rho(1, 1) = 0.5;
    rho(0, 1) = 0.5;
    rho(1, 0) = 0.5;
    const Mat out = quantum::apply_superop(sup, rho);
    EXPECT_NEAR(std::arg(out(1, 0)), theta, 1e-12);
    EXPECT_NEAR(std::abs(out(0, 1)), 0.5, 1e-12);
}

TEST(Executor, VirtualZEquivalence) {
    // Gate-level circuit rz(pi/2) sx rz(pi/2) must act as Hadamard: check via
    // state preparation |0> -> |+>.
    PulseExecutor exec(clean_device());
    const auto defaults = build_default_gates(exec);
    pulse::QuantumCircuit qc(1);
    qc.h(0);
    const Mat rho = simulate_circuit_1q(exec, qc, defaults, 0);
    // Tolerance covers the *intentional* default-sx amplitude miscalibration
    // (DefaultGateOptions::sx_amp_relative_error) plus calibration shot noise.
    EXPECT_NEAR(rho(0, 0).real(), 0.5, 0.06);
    EXPECT_NEAR(rho(0, 1).real(), 0.5, 0.06);  // +X coherence of |+>
}

TEST(Executor, ScheduleFrameCorrectionMatchesGateComposition) {
    // The same circuit executed (a) by gate-superop composition and (b) by
    // lowering to a schedule with ShiftPhases and integrating samples must
    // produce the same state.
    PulseExecutor exec(clean_device());
    const auto defaults = build_default_gates(exec);
    pulse::QuantumCircuit qc(1);
    qc.rz(0, 0.4).sx(0).rz(0, -1.1).x(0).rz(0, 2.2);
    const Mat via_gates = simulate_circuit_1q(exec, qc, defaults, 0);

    const pulse::Schedule sched = pulse::circuit_to_schedule(qc, defaults);
    const Mat sup = exec.schedule_superop_1q(sched, 0);
    const Mat via_schedule = quantum::apply_superop(sup, exec.ground_state_1q());
    EXPECT_TRUE(via_gates.approx_equal(via_schedule, 1e-9));
}

TEST(Executor, MeasurementConfusionMatrix) {
    BackendConfig cfg = clean_device();
    cfg.qubits[0].readout_p10 = 0.1;
    cfg.qubits[0].readout_p01 = 0.2;
    PulseExecutor exec(cfg);
    EXPECT_NEAR(exec.p1_after_readout(exec.ground_state_1q(), 0), 0.1, 1e-12);
    Mat rho1(cfg.levels, cfg.levels);
    rho1(1, 1) = 1.0;
    EXPECT_NEAR(exec.p1_after_readout(rho1, 0), 0.8, 1e-12);
}

TEST(Executor, MeasurementShotsDeterministicPerSeed) {
    PulseExecutor exec(ibmq_montreal());
    const Mat rho = exec.ground_state_1q();
    const Counts a = exec.measure_1q(rho, 0, 1024, 42);
    const Counts b = exec.measure_1q(rho, 0, 1024, 42);
    EXPECT_EQ(a.histogram, b.histogram);
    EXPECT_EQ(a.shots, 1024);
    EXPECT_NEAR(a.probability("0") + a.probability("1"), 1.0, 1e-12);
}

TEST(Executor, TwoQubitIdlePreservesGround) {
    PulseExecutor exec(ibmq_montreal());
    const Mat sup = exec.idle_superop_2q(500);
    const Mat rho = quantum::apply_superop(sup, exec.ground_state_2q());
    EXPECT_NEAR(rho(0, 0).real(), 1.0, 1e-9);
}

TEST(Executor, TwoQubitCallsRejectOneQubitBackend) {
    BackendConfig one = ibmq_montreal();
    one.qubits.resize(1);
    const PulseExecutor exec(one);
    const std::vector<std::complex<double>> drive = {{0.2, 0.0}, {0.1, 0.05}};
    const std::vector<std::complex<double>> zeros(2);
    pulse::Schedule cr("cr");
    cr.insert(0, Play{drag_waveform(16, {0.3, 0.0}, 0.0), pulse::control_channel(0)});
    expect_invalid_argument([&] { exec.layer_superop_2q(drive, zeros, zeros); },
                            "layer_superop_2q");
    expect_invalid_argument([&] { exec.layer_superop_2q(zeros, zeros, zeros); },
                            "layer_superop_2q");
    expect_invalid_argument([&] { exec.idle_superop_2q(10); }, "idle_superop_2q");
    expect_invalid_argument([&] { exec.schedule_superop_2q(cr); }, "schedule_superop_2q");
    // The single-qubit calls still work on that backend.
    EXPECT_TRUE(quantum::is_trace_preserving(exec.waveform_superop_1q(drive, 0)));
}

TEST(Executor, TwoQubitMeasureRejectsBadInput) {
    BackendConfig one = ibmq_montreal();
    one.qubits.resize(1);
    const PulseExecutor single(one);
    const Mat rho00 = single.ground_state_2q();
    expect_invalid_argument([&] { single.measure_2q(rho00, 64, 1); }, "measure_2q");
    expect_invalid_argument([&] { single.measure_2q_vec(linalg::vec(rho00), 64, 1); },
                            "measure_2q_vec");

    // On a pair backend a density matrix of any other shape is refused
    // before a single entry is read.
    const PulseExecutor pair(ibmq_montreal());
    for (std::size_t d : {2u, 3u, 9u}) {
        const Mat mixed = (1.0 / static_cast<double>(d)) * Mat::identity(d);
        expect_invalid_argument([&] { pair.measure_2q(mixed, 64, 1); }, "4 x 4");
    }
    expect_invalid_argument([&] { pair.measure_2q(Mat(4, 1), 64, 1); }, "4 x 4");
    const Counts ok = pair.measure_2q(pair.ground_state_2q(), 64, 1);
    EXPECT_EQ(ok.shots, 64);
}

TEST(Executor, OneQubitReadoutRejectsBadInput) {
    // p1_after_readout (and measure_1q, which reads through it) takes a
    // levels x levels density matrix only: a ket, a non-square matrix and a
    // square matrix of another level count are refused before a single
    // entry is read.
    const PulseExecutor exec(ibmq_montreal());
    const std::size_t d = exec.config().levels;
    ASSERT_EQ(d, 3u);
    Mat ket(d * d, 1);  // the 9x1 shape of a vectorized rho, read as a ket
    ket(0, 0) = 1.0;
    const std::vector<Mat> bad = {ket, quantum::basis_ket(d, 1), Mat(d * d, 2), Mat(d, d + 1),
                                  Mat::identity(2), 0.25 * Mat::identity(4)};
    for (const Mat& rho : bad) {
        SCOPED_TRACE(std::to_string(rho.rows()) + "x" + std::to_string(rho.cols()));
        expect_invalid_argument([&] { exec.p1_after_readout(rho, 0); }, "levels x levels");
        expect_invalid_argument([&] { exec.measure_1q(rho, 0, 64, 1); }, "levels x levels");
    }
    EXPECT_NEAR(exec.p1_after_readout(exec.ground_state_1q(), 0),
                exec.config().qubit(0).readout_p10, 1e-15);
    EXPECT_EQ(exec.measure_1q(exec.ground_state_1q(), 0, 64, 1).shots, 64);
}

TEST(Executor, CrPulseEntanglesConditionally) {
    // A ZX90-calibrated CR pulse rotates the target in opposite directions
    // for the two control states.
    PulseExecutor exec(clean_device());
    const auto defaults = build_default_gates(exec);
    ASSERT_TRUE(defaults.has("cx", {0, 1}));

    pulse::QuantumCircuit qc(2);
    qc.cx(0, 1);
    // |00> -> |00| (control off: target returns to 0).
    Mat rho = simulate_circuit_2q(exec, qc, defaults);
    EXPECT_GT(rho(0, 0).real(), 0.98);

    pulse::QuantumCircuit qc2(2);
    qc2.x(0).cx(0, 1);
    rho = simulate_circuit_2q(exec, qc2, defaults);
    EXPECT_GT(rho(3, 3).real(), 0.95);  // |11>
}

TEST(Executor, DefaultCxFidelityReasonable) {
    PulseExecutor exec(ibmq_montreal());
    const auto defaults = build_default_gates(exec);
    const Mat sup = exec.schedule_superop_2q(defaults.get("cx", {0, 1}));
    const double f = quantum::average_gate_fidelity_superop(quantum::gates::cx(), sup);
    // Realistic default CX: better than 0.97, worse than perfect.
    EXPECT_GT(f, 0.97);
    EXPECT_LT(f, 0.99999);
}

TEST(Executor, DefaultXFidelityAtPaperScale) {
    PulseExecutor exec(ibmq_montreal());
    const auto defaults = build_default_gates(exec);
    const Mat sup = exec.schedule_superop_1q(defaults.get("x", {0}), 0);
    // Compare against X extended by identity on the leakage level.
    Mat x_full = Mat::identity(3);
    x_full.set_block(0, 0, quantum::gates::x());
    const double f = quantum::average_gate_fidelity_superop(x_full, sup);
    const double err = 1.0 - f;
    // Paper scale: default 1Q error a few 1e-4.
    EXPECT_GT(err, 1e-5);
    EXPECT_LT(err, 5e-3);
}

// --- readout sampling ------------------------------------------------------

/// A 2-qubit density matrix with populations `p` on its diagonal.
Mat diag_rho(const std::array<double, 4>& p) {
    Mat rho(4, 4);
    for (std::size_t k = 0; k < 4; ++k) rho(k, k) = p[k];
    return rho;
}

/// Read-out distribution over "00".."11", written out from the per-qubit
/// confusion matrices independently of the executor.
std::array<double, 4> readout_distribution(const BackendConfig& cfg,
                                           const std::array<double, 4>& truth) {
    const auto m = [&](std::size_t q, int read, int t) {
        const double flip = t == 0 ? cfg.qubits[q].readout_p10 : cfg.qubits[q].readout_p01;
        return read == t ? 1.0 - flip : flip;
    };
    std::array<double, 4> p{};
    for (int r = 0; r < 4; ++r)
        for (int t = 0; t < 4; ++t) p[r] += truth[t] * m(0, r / 2, t / 2) * m(1, r % 2, t % 2);
    return p;
}

const char* const kLabels[4] = {"00", "01", "10", "11"};

TEST(Readout, Measure2qCountsFollowMultinomialMoments) {
    // Over 2000 shot seeds each label's mean count must sit within 4 sigma
    // of shots * p, and the count covariance must match the multinomial's
    // shots * (diag p - p p^T) within 5 standard errors.
    const BackendConfig cfg = ibmq_montreal();
    const PulseExecutor exec(cfg);
    const std::array<double, 4> truth{0.55, 0.25, 0.15, 0.05};
    const std::array<double, 4> p = readout_distribution(cfg, truth);
    constexpr int kShots = 1000;
    constexpr int kSeeds = 2000;
    std::vector<std::array<double, 4>> counts(kSeeds);
    std::array<double, 4> mean{};
    for (int s = 0; s < kSeeds; ++s) {
        const Counts c = exec.measure_2q(diag_rho(truth), kShots, 1000 + s);
        ASSERT_EQ(c.shots, kShots);
        int total = 0;
        for (int k = 0; k < 4; ++k) {
            const auto it = c.histogram.find(kLabels[k]);
            counts[s][k] = it == c.histogram.end() ? 0.0 : it->second;
            total += static_cast<int>(counts[s][k]);
            mean[k] += counts[s][k] / kSeeds;
        }
        ASSERT_EQ(total, kShots);
    }
    for (int k = 0; k < 4; ++k) {
        const double sd_mean = std::sqrt(kShots * p[k] * (1.0 - p[k]) / kSeeds);
        EXPECT_NEAR(mean[k], kShots * p[k], 4.0 * sd_mean) << kLabels[k];
    }
    for (int k = 0; k < 4; ++k) {
        for (int l = 0; l < 4; ++l) {
            double cov = 0.0;
            for (const auto& c : counts) cov += (c[k] - mean[k]) * (c[l] - mean[l]);
            cov /= kSeeds - 1;
            const double want = kShots * ((k == l ? p[k] : 0.0) - p[k] * p[l]);
            const double var_k = kShots * p[k] * (1.0 - p[k]);
            const double var_l = kShots * p[l] * (1.0 - p[l]);
            const double se = std::sqrt((var_k * var_l + want * want) / kSeeds);
            EXPECT_NEAR(cov, want, 5.0 * se) << kLabels[k] << kLabels[l];
        }
    }
}

TEST(Readout, Measure2qZeroProbabilityLabelsNeverAppear) {
    const PulseExecutor exec(clean_device());
    // |00> and |10> only: with ideal readout "01" and "11" are impossible.
    for (int s = 0; s < 500; ++s) {
        const Counts c = exec.measure_2q(diag_rho({0.5, 0.0, 0.5, 0.0}), 64, s);
        EXPECT_EQ(c.histogram.count("01"), 0u);
        EXPECT_EQ(c.histogram.count("11"), 0u);
        EXPECT_EQ(c.histogram.at("00") + c.histogram.at("10"), 64);
    }
}

TEST(Readout, Measure2qZeroShotsAndSingleOutcome) {
    const PulseExecutor exec(clean_device());
    const Counts none = exec.measure_2q(diag_rho({0.25, 0.25, 0.25, 0.25}), 0, 3);
    EXPECT_EQ(none.shots, 0);
    EXPECT_TRUE(none.histogram.empty());
    EXPECT_EQ(none.probability("00"), 0.0);
    for (int k = 0; k < 4; ++k) {
        std::array<double, 4> truth{};
        truth[k] = 1.0;
        const Counts c = exec.measure_2q(diag_rho(truth), 8192, 5);
        ASSERT_EQ(c.histogram.size(), 1u) << kLabels[k];
        EXPECT_EQ(c.histogram.at(kLabels[k]), 8192) << kLabels[k];
    }
}

TEST(Readout, NonFinitePopulationsThrow) {
    // A NaN or Inf population must not read out as plausible counts.
    const PulseExecutor exec(ibmq_montreal());
    for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
        Mat rho2 = diag_rho({0.9, 0.05, 0.05, 0.0});
        rho2(0, 0) = bad;
        EXPECT_THROW(exec.measure_2q(rho2, 8192, 1), std::domain_error) << bad;
        EXPECT_THROW(exec.measure_2q_vec(linalg::vec(rho2), 8192, 1), std::domain_error)
            << bad;

        Mat rho1 = exec.ground_state_1q();
        rho1(1, 1) = bad;
        EXPECT_THROW(exec.measure_1q(rho1, 0, 8192, 1), std::domain_error) << bad;
    }
}

TEST(Readout, Measure1qClampsRoundoff) {
    // Populations a rounding step outside [0, 1] read out as the nearest
    // certain outcome.
    const PulseExecutor exec(clean_device());
    Mat rho(exec.config().levels, exec.config().levels);
    rho(0, 0) = -1e-15;
    rho(1, 1) = 1.0 + 1e-15;
    const Counts c = exec.measure_1q(rho, 0, 4096, 9);
    EXPECT_EQ(c.histogram.size(), 1u);
    EXPECT_EQ(c.histogram.at("1"), 4096);
}

}  // namespace
}  // namespace qoc::device
