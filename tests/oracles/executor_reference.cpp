#include "oracles/executor_reference.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <variant>

#include "linalg/expm.hpp"
#include "linalg/kron.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"

namespace qoc::oracle {

namespace {

using linalg::cplx;
using quantum::op_on_qubit;
using quantum::sigma_x;
using quantum::sigma_y;
using quantum::sigma_z;
constexpr cplx kI{0.0, 1.0};

double dephasing_rate(double t1, double t2) { return std::max(0.0, 1.0 / t2 - 0.5 / t1); }

/// L of one 1Q drive sample: Duffing transmon in the drive frame, T1 and
/// dephasing collapses, and the drive-noise collapse along H_drive.
Mat generator_1q(const device::BackendConfig& cfg, cplx sample, std::size_t qubit) {
    const auto& p = cfg.qubit(qubit);
    const std::size_t d = cfg.levels;
    const Mat num = quantum::number_op(d);
    Mat h(d, d);
    for (std::size_t k = 0; k < d; ++k) {
        const double n = static_cast<double>(k);
        h(k, k) = p.detuning * n + 0.5 * p.anharmonicity * n * (n - 1.0);
    }
    const cplx amp = 0.5 * p.omega_max * p.amp_scale * sample;
    // H_drive = (Omega/2)(s a^dag + s* a)
    Mat h_drive(d, d);
    for (std::size_t n = 1; n < d; ++n) {
        const double ladder = std::sqrt(static_cast<double>(n));
        h_drive(n, n - 1) = amp * ladder;
        h_drive(n - 1, n) = std::conj(amp) * ladder;
    }
    h += h_drive;
    std::vector<Mat> collapse{std::sqrt(1.0 / p.t1) * quantum::annihilation(d)};
    const double gphi = dephasing_rate(p.t1, p.t2);
    if (gphi > 0.0) collapse.push_back(std::sqrt(2.0 * gphi) * num);
    if (p.drive_amp_noise > 0.0) collapse.push_back(std::sqrt(p.drive_amp_noise) * h_drive);
    return quantum::liouvillian(h, collapse);
}

/// L of one (d0, d1, u0) sample triple on the pair (paper Eq. 3).
Mat generator_2q(const device::BackendConfig& cfg, cplx d0, cplx d1, cplx u0) {
    const Mat n1 = Mat{{0.0, 0.0}, {0.0, 1.0}};
    Mat h = cfg.cr.zz_static * (op_on_qubit(n1, 0, 2) * op_on_qubit(n1, 1, 2));
    std::vector<Mat> collapse;
    for (std::size_t q = 0; q < 2; ++q) {
        const auto& p = cfg.qubit(q);
        h += p.detuning * op_on_qubit(n1, q, 2);
        collapse.push_back(std::sqrt(1.0 / p.t1) * op_on_qubit(quantum::sigma_minus(), q, 2));
        const double gphi = dephasing_rate(p.t1, p.t2);
        if (gphi > 0.0) collapse.push_back(std::sqrt(2.0 * gphi) * op_on_qubit(n1, q, 2));
    }
    const std::array<cplx, 2> drive{d0, d1};
    for (std::size_t q = 0; q < 2; ++q) {
        const auto& p = cfg.qubit(q);
        const double rate = p.omega_max * p.amp_scale;
        const Mat h_drive = (0.5 * rate * drive[q].real()) * op_on_qubit(sigma_x(), q, 2) +
                            (0.5 * rate * drive[q].imag()) * op_on_qubit(sigma_y(), q, 2);
        h += h_drive;
        if (p.drive_amp_noise > 0.0) {
            collapse.push_back(std::sqrt(p.drive_amp_noise) * h_drive);
        }
    }
    const double re = u0.real(), im = u0.imag();
    h += (0.5 * cfg.cr.zx_rate) *
         (re * linalg::kron(sigma_z(), sigma_x()) + im * linalg::kron(sigma_z(), sigma_y()));
    h += (0.5 * cfg.cr.ix_rate) *
         (re * op_on_qubit(sigma_x(), 1, 2) + im * op_on_qubit(sigma_y(), 1, 2));
    h += (0.5 * cfg.cr.classical_crosstalk) *
         (re * op_on_qubit(sigma_x(), 0, 2) + im * op_on_qubit(sigma_y(), 0, 2));
    return quantum::liouvillian(h, collapse);
}

double net_frame_phase(const pulse::Schedule& sched, const pulse::Channel& ch) {
    double phase = 0.0;
    for (const auto& [t0, inst] : sched.instructions()) {
        if (const auto* sp = std::get_if<pulse::ShiftPhase>(&inst)) {
            if (sp->channel == ch) phase += sp->phase;
        }
    }
    return phase;
}

/// e^{i theta n} on a d-level system.
Mat frame_unitary(std::size_t d, double theta) {
    Mat u(d, d);
    for (std::size_t k = 0; k < d; ++k) u(k, k) = std::exp(kI * (theta * static_cast<double>(k)));
    return u;
}

cplx padded(const Samples& v, std::size_t k) { return k < v.size() ? v[k] : cplx{}; }

}  // namespace

Mat reference_waveform_superop_1q(const device::BackendConfig& cfg, const Samples& samples,
                                  std::size_t qubit) {
    Mat total = Mat::identity(cfg.levels * cfg.levels);
    for (const cplx s : samples) total = linalg::expm(cfg.dt * generator_1q(cfg, s, qubit)) * total;
    return total;
}

Mat reference_layer_superop_2q(const device::BackendConfig& cfg, const Samples& d0,
                               const Samples& d1, const Samples& u0) {
    const std::size_t n = std::max({d0.size(), d1.size(), u0.size()});
    Mat total = Mat::identity(16);
    for (std::size_t k = 0; k < n; ++k) {
        const Mat l = generator_2q(cfg, padded(d0, k), padded(d1, k), padded(u0, k));
        total = linalg::expm(cfg.dt * l) * total;
    }
    return total;
}

Mat reference_idle_superop_1q(const device::BackendConfig& cfg, std::size_t duration_dt,
                              std::size_t qubit) {
    const double t = cfg.dt * static_cast<double>(duration_dt);
    return linalg::expm(t * generator_1q(cfg, {}, qubit));
}

Mat reference_idle_superop_2q(const device::BackendConfig& cfg, std::size_t duration_dt) {
    const double t = cfg.dt * static_cast<double>(duration_dt);
    return linalg::expm(t * generator_2q(cfg, {}, {}, {}));
}

Mat reference_schedule_superop_1q(const device::BackendConfig& cfg,
                                  const pulse::Schedule& sched, std::size_t qubit) {
    const std::size_t n_dt = sched.total_duration();
    const pulse::Channel ch = pulse::drive_channel(qubit);
    const Mat frame = frame_unitary(cfg.levels, -net_frame_phase(sched, ch));
    return quantum::unitary_superop(frame) *
           reference_waveform_superop_1q(cfg, sched.channel_samples(ch, n_dt), qubit);
}

Mat reference_schedule_superop_2q(const device::BackendConfig& cfg,
                                  const pulse::Schedule& sched) {
    const std::size_t n_dt = sched.total_duration();
    Mat total = reference_layer_superop_2q(
        cfg, sched.channel_samples(pulse::drive_channel(0), n_dt),
        sched.channel_samples(pulse::drive_channel(1), n_dt),
        sched.channel_samples(pulse::control_channel(0), n_dt));
    for (std::size_t q = 0; q < 2; ++q) {
        const Mat frame = frame_unitary(2, -net_frame_phase(sched, pulse::drive_channel(q)));
        total = quantum::unitary_superop(op_on_qubit(frame, q, 2)) * total;
    }
    return total;
}

}  // namespace qoc::oracle
