/// The executor's per-sample Lindblad propagators against an independent
/// oracle: the test assembles each sample's Hamiltonian and collapse
/// operators from the `BackendConfig` fields alone and integrates the master
/// equation (paper Eq. 1) over that sample with RK45 and plain-loop
/// products, one sample after another.  The executor assembles dt L per
/// distinct sample from real Hermitian-basis pieces, exponentiates it
/// through the Pade engine and multiplies the propagators, so the two share
/// no kernel.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "device/executor.hpp"
#include "linalg/kron.hpp"
#include "oracles/integrator.hpp"
#include "pulse/waveform.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::device {
namespace {

using linalg::cplx;
using quantum::op_on_qubit;
using quantum::sigma_x;
using quantum::sigma_y;
using quantum::sigma_z;
using Samples = std::vector<std::complex<double>>;
constexpr cplx kI{0.0, 1.0};

/// Collapse operators of one qubit: T1 decay, and pure dephasing from
/// 1/T2 = 1/(2 T1) + Gamma_phi when that rate is positive.
void add_decoherence(const QubitParams& p, const Mat& lower, const Mat& number,
                     std::vector<Mat>& collapse) {
    collapse.push_back(std::sqrt(1.0 / p.t1) * lower);
    const double gphi = 1.0 / p.t2 - 0.5 / p.t1;
    if (gphi > 0.0) collapse.push_back(std::sqrt(2.0 * gphi) * number);
}

/// Integrates one constant-Hamiltonian step of length dt per entry of `hs`.
Mat evolve_samplewise(const std::vector<Mat>& hs, const std::vector<std::vector<Mat>>& cs,
                      double dt, Mat rho) {
    oracle::IntegratorOptions opts;
    opts.rtol = 1e-12;
    opts.atol = 1e-14;
    for (std::size_t k = 0; k < hs.size(); ++k) {
        const Mat& h = hs[k];
        rho = oracle::evolve_master_equation([&h](double) { return h; }, cs[k], rho, 0.0, dt,
                                             opts);
    }
    return rho;
}

/// Hermitian test states: populations, coherences and (1q) leakage level.
std::vector<Mat> initial_states(std::size_t d) {
    std::vector<Mat> states;
    for (std::size_t k = 0; k < d; ++k) {
        states.push_back(quantum::ket_to_dm(quantum::basis_ket(d, k)));
    }
    Mat plus(d, 1);
    plus(0, 0) = 1.0 / std::sqrt(2.0);
    plus(1, 0) = kI / std::sqrt(2.0);
    states.push_back(quantum::ket_to_dm(plus));
    Mat mixed(d, d);
    for (std::size_t k = 0; k < d; ++k) mixed(k, k) = 1.0 / static_cast<double>(d);
    mixed(0, d - 1) = cplx{0.1, -0.05};
    mixed(d - 1, 0) = std::conj(mixed(0, d - 1));
    states.push_back(mixed);
    return states;
}

/// The executor's superoperator of a stream on qubit 0 against RK45 on
/// the master equation: per sample the transmon Hamiltonian with its drive
/// term H_drive = (Omega/2)(s a^dag + s* a), the decoherence collapses, and
/// the drive-noise collapse sqrt(drive_amp_noise) H_drive when that rate is
/// positive.
void expect_1q_stream_matches_master_equation(const BackendConfig& cfg,
                                              const Samples& samples) {
    const PulseExecutor exec(cfg);
    const Mat sup = exec.waveform_superop_1q(samples, 0);

    const QubitParams& q = cfg.qubits[0];
    const std::size_t d = cfg.levels;
    const Mat a = quantum::annihilation(d);
    const Mat num = quantum::number_op(d);
    Mat h0(d, d);
    for (std::size_t k = 0; k < d; ++k) {
        const double nk = static_cast<double>(k);
        h0(k, k) = q.detuning * nk + 0.5 * q.anharmonicity * nk * (nk - 1.0);
    }
    std::vector<Mat> collapse;
    add_decoherence(q, a, num, collapse);
    std::vector<Mat> hs;
    std::vector<std::vector<Mat>> cs;
    for (const auto& s : samples) {
        const cplx amp = 0.5 * q.omega_max * q.amp_scale * s;
        const Mat h_drive = amp * a.adjoint() + std::conj(amp) * a;
        hs.push_back(h0 + h_drive);
        cs.push_back(collapse);
        if (q.drive_amp_noise > 0.0) {
            cs.back().push_back(std::sqrt(q.drive_amp_noise) * h_drive);
        }
    }

    for (const Mat& rho0 : initial_states(d)) {
        const Mat want = evolve_samplewise(hs, cs, cfg.dt, rho0);
        EXPECT_LE((quantum::apply_superop(sup, rho0) - want).max_abs(), 1e-8);
    }
}

/// Transmon parameters with decay and dephasing strong enough to show in a
/// few dozen samples.
BackendConfig short_lived_transmon() {
    BackendConfig cfg = ibmq_montreal();
    QubitParams& q = cfg.qubits[0];
    q.detuning = 0.04;
    q.amp_scale = 0.97;
    q.t1 = 900.0;
    q.t2 = 700.0;
    return cfg;
}

TEST(ExecutorOracle, WaveformSuperop1qMatchesMasterEquation) {
    BackendConfig cfg = short_lived_transmon();
    ASSERT_EQ(cfg.levels, 3u);
    cfg.qubits[0].drive_amp_noise = 0.0;

    // DRAG-like stream: Gaussian in-phase part, derivative quadrature.
    const std::size_t n = 32;
    Samples samples(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double t = (static_cast<double>(k) - 15.5) / 7.0;
        const double g = 0.6 * std::exp(-0.5 * t * t);
        samples[k] = {g, -0.3 * t * g};
    }
    expect_1q_stream_matches_master_equation(cfg, samples);
}

TEST(ExecutorOracle, WaveformSuperop1qWithDriveNoiseMatchesMasterEquation) {
    // The drive-noise dissipator is quadratic in the sample; a DRAG pulse
    // with a nonzero quadrature exercises its Re^2, Im^2 and Re Im parts.
    const BackendConfig cfg = short_lived_transmon();
    ASSERT_EQ(cfg.qubits[0].drive_amp_noise, 4e-3);
    const Samples samples = pulse::drag_waveform(32, {0.6, 0.1}, 0.5).samples();
    std::size_t mixed = 0;
    for (const auto& s : samples) mixed += (s.real() != 0.0 && s.imag() != 0.0) ? 1 : 0;
    ASSERT_GT(mixed, 16u);
    expect_1q_stream_matches_master_equation(cfg, samples);

    // The noise is visible at this tolerance: dropping it moves the map.
    BackendConfig quiet = cfg;
    quiet.qubits[0].drive_amp_noise = 0.0;
    const Mat noisy = PulseExecutor(cfg).waveform_superop_1q(samples, 0);
    const Mat clean = PulseExecutor(quiet).waveform_superop_1q(samples, 0);
    EXPECT_GT((noisy - clean).max_abs(), 1e-5);
}

TEST(ExecutorOracle, LayerSuperop2qMatchesMasterEquation) {
    BackendConfig cfg = ibmq_montreal();
    cfg.qubits[0].detuning = 0.03;
    cfg.qubits[1].detuning = -0.02;
    cfg.qubits[1].amp_scale = 1.04;
    cfg.qubits[0].t1 = 1500.0;
    cfg.qubits[0].t2 = 1200.0;
    cfg.qubits[1].t1 = 1100.0;
    cfg.qubits[1].t2 = 1900.0;
    const PulseExecutor exec(cfg);

    // A short CR stream on U0 and a longer D1 stream: D0 stays silent and
    // U0 is zero-padded to the D1 length.
    const std::size_t n_cr = 16, n = 24;
    Samples u0(n_cr), d1(n);
    for (std::size_t k = 0; k < n; ++k) {
        const auto t = static_cast<double>(k);
        if (k < n_cr) u0[k] = std::polar(0.8 * std::sin(std::numbers::pi * (t + 0.5) / n_cr), 0.3);
        d1[k] = {0.4 * std::cos(0.2 * t), 0.1};
    }
    const Mat sup = exec.layer_superop_2q({}, d1, u0);

    const Mat n1 = Mat{{0.0, 0.0}, {0.0, 1.0}};
    const Mat sm = quantum::sigma_minus();
    Mat h_static = cfg.cr.zz_static * (op_on_qubit(n1, 0, 2) * op_on_qubit(n1, 1, 2));
    std::vector<Mat> collapse;
    for (std::size_t qb = 0; qb < 2; ++qb) {
        h_static += cfg.qubit(qb).detuning * op_on_qubit(n1, qb, 2);
        add_decoherence(cfg.qubit(qb), op_on_qubit(sm, qb, 2), op_on_qubit(n1, qb, 2),
                        collapse);
    }
    const Mat zx = linalg::kron(sigma_z(), sigma_x());
    const Mat zy = linalg::kron(sigma_z(), sigma_y());
    std::vector<Mat> hs;
    std::vector<std::vector<Mat>> cs;
    for (std::size_t k = 0; k < n; ++k) {
        Mat h = h_static;
        std::vector<Mat> c = collapse;
        const QubitParams& p1 = cfg.qubit(1);
        const double rate = p1.omega_max * p1.amp_scale;
        const Mat h_drive = (0.5 * rate * d1[k].real()) * op_on_qubit(sigma_x(), 1, 2) +
                            (0.5 * rate * d1[k].imag()) * op_on_qubit(sigma_y(), 1, 2);
        h += h_drive;
        c.push_back(std::sqrt(p1.drive_amp_noise) * h_drive);
        if (k < n_cr) {
            const double re = u0[k].real(), im = u0[k].imag();
            h += (0.5 * cfg.cr.zx_rate) * (re * zx + im * zy);
            h += (0.5 * cfg.cr.ix_rate) *
                 (re * op_on_qubit(sigma_x(), 1, 2) + im * op_on_qubit(sigma_y(), 1, 2));
            h += (0.5 * cfg.cr.classical_crosstalk) *
                 (re * op_on_qubit(sigma_x(), 0, 2) + im * op_on_qubit(sigma_y(), 0, 2));
        }
        hs.push_back(h);
        cs.push_back(c);
    }
    ASSERT_GT(cfg.qubit(1).drive_amp_noise, 0.0);

    for (const Mat& rho0 : initial_states(4)) {
        const Mat want = evolve_samplewise(hs, cs, cfg.dt, rho0);
        EXPECT_LE((quantum::apply_superop(sup, rho0) - want).max_abs(), 1e-8);
    }
}

}  // namespace
}  // namespace qoc::device
