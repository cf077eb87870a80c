#include "device/calibration.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "control/pulse_shapes.hpp"
#include "obs/obs.hpp"
#include "optim/levmar.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::device {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

double default_drag_beta(const BackendConfig& config, std::size_t qubit,
                         std::size_t duration_dt) {
    // DRAG coefficient in the -1/(2 alpha) convention: Q(t) = -dI/dt/(2 alpha)
    // (the variant that cancels the AC-Stark phase error, which dominates the
    // gate error at these durations; verified optimal on this model by a
    // beta sweep).  The waveform generator's quadrature is normalized to
    // unit peak and the peak of dG/dt for a Gaussian of width sigma is
    // e^{-1/2}/sigma, so beta = e^{-1/2} / (2 sigma_ns |alpha|), positive
    // for the transmon's alpha < 0.
    const double sigma_ns = 0.25 * static_cast<double>(duration_dt) * config.dt;
    const double alpha = config.qubit(qubit).anharmonicity;
    if (alpha == 0.0) return 0.0;
    return std::exp(-0.5) / (2.0 * sigma_ns * std::abs(alpha));
}

RabiResult rabi_calibrate(const PulseExecutor& device, std::size_t qubit,
                          const RabiOptions& opts) {
    const BackendConfig& cfg = device.config();
    const double beta = default_drag_beta(cfg, qubit, opts.pulse_duration_dt);

    RabiResult result;
    result.sweep_amps.resize(opts.n_points);
    result.sweep_p1.resize(opts.n_points);

    obs::Span span("executor.rabi_calibrate");
    const Mat rho0 = device.ground_state_1q();
    // Sweep points are independent (each has its own shot seed), so they fan
    // out over the task pool; every body writes only its own slot.
    runtime::TaskPool::global().parallel_for(0, opts.n_points, [&](std::size_t i) {
        const double amp =
            opts.max_amplitude * static_cast<double>(i + 1) / static_cast<double>(opts.n_points);
        const auto wf = pulse::drag_waveform(opts.pulse_duration_dt, {amp, 0.0}, beta);
        const Mat sup = device.waveform_superop_1q(wf.samples(), qubit);
        const Mat rho = quantum::apply_superop(sup, rho0);
        const Counts c = device.measure_1q(rho, qubit, opts.shots, opts.seed + i);
        result.sweep_amps[i] = amp;
        result.sweep_p1[i] = c.probability("1");
    });

    // Expected oscillation frequency from the nominal model: rotation angle
    // theta(amp) = amp * Omega_max * gaussian_area, P1 = (1 - cos theta)/2.
    const double area_ns =
        control::pulse_area(control::gaussian_pulse(opts.pulse_duration_dt), cfg.dt);
    const double rad_per_amp = cfg.qubit(qubit).omega_max * area_ns;
    const double f0 = rad_per_amp / kTwoPi;

    auto model = [&](std::size_t i, const std::vector<double>& p) {
        return p[0] * std::cos(kTwoPi * p[1] * result.sweep_amps[i] + p[2]) + p[3];
    };
    const auto fit = optim::levmar_fit(model, opts.n_points, result.sweep_p1,
                                       {-0.5, f0, 0.0, 0.5});
    result.fit_frequency = fit.params[1];
    // First maximum of P1: cos(2 pi f a + phi) = -1 -> a = (pi - phi)/(2 pi f).
    result.pi_amplitude = (std::numbers::pi - fit.params[2]) / (kTwoPi * fit.params[1]);
    // Propagate frequency + phase uncertainty to the amplitude (independent
    // errors add in quadrature).
    const double df = fit.stderrs[1], dphi = fit.stderrs[2];
    result.fit_stderr = std::hypot(result.pi_amplitude * df / fit.params[1],
                                   dphi / (kTwoPi * fit.params[1]));
    if (!(result.pi_amplitude > 0.0) || result.pi_amplitude > 1.0) {
        throw std::runtime_error("rabi_calibrate: calibration failed (pi amplitude " +
                                 std::to_string(result.pi_amplitude) + ")");
    }
    return result;
}

namespace {

/// Conditional target-rotation angle about X for a CR superoperator, with
/// the control prepared in |c> and the target in |0>:
/// theta = atan2(-<Y>, <Z>) of the target's reduced state.
double conditional_angle(const Mat& superop, int control_state) {
    const Mat rho0 = quantum::ket_to_dm(quantum::basis_ket_bits({control_state, 0}));
    const Mat rho = quantum::apply_superop(superop, rho0);
    const Mat target = quantum::partial_trace(rho, 2, 2, 0);
    const auto bloch = quantum::bloch_vector(target);
    return std::atan2(-bloch.y, bloch.z);
}

}  // namespace

pulse::InstructionScheduleMap build_default_gates(const PulseExecutor& device,
                                                  const DefaultGateOptions& opts) {
    const BackendConfig& cfg = device.config();
    pulse::InstructionScheduleMap map;

    // --- single-qubit defaults: Rabi-calibrated DRAG x and sx ---------------
    std::vector<double> pi_amp(cfg.qubits.size(), 0.0);
    for (std::size_t q = 0; q < cfg.qubits.size(); ++q) {
        RabiOptions ropts;
        ropts.pulse_duration_dt = opts.gate_duration_dt;
        ropts.shots = opts.calibration_shots;
        ropts.seed = opts.seed + 100 * q;
        const RabiResult rabi = rabi_calibrate(device, q, ropts);
        pi_amp[q] = rabi.pi_amplitude;
        const double beta =
            opts.drag_beta_scale * default_drag_beta(cfg, q, opts.gate_duration_dt);

        pulse::Schedule x_sched("x_d" + std::to_string(q));
        x_sched.insert(0, pulse::Play{pulse::drag_waveform(opts.gate_duration_dt,
                                                           {rabi.pi_amplitude, 0.0}, beta,
                                                           opts.drag_sigma_fraction),
                                      pulse::drive_channel(q)});
        map.add("x", {q}, x_sched);

        const double sx_amp =
            0.5 * rabi.pi_amplitude * (1.0 + opts.sx_amp_relative_error);
        pulse::Schedule sx_sched("sx_d" + std::to_string(q));
        sx_sched.insert(0, pulse::Play{pulse::drag_waveform(opts.gate_duration_dt,
                                                            {sx_amp, 0.0}, beta,
                                                            opts.drag_sigma_fraction),
                                       pulse::drive_channel(q)});
        map.add("sx", {q}, sx_sched);
    }

    // --- two-qubit default: calibrated echoed-CR CX -------------------------
    // The echo  CR(+u) . X0 . CR(-u) . X0  cancels the IX and classical-
    // crosstalk terms and doubles ZX, leaving (ideally) exp(-i Theta ZX)
    // with Theta = zx_rate * u * area_half.  CX then follows from
    // CX = ZX90 * (RZ(-pi/2) (x) RX(-pi/2)) up to global phase.
    if (cfg.qubits.size() >= 2) {
        const std::size_t half_dt = opts.cx_duration_dt / 2;
        const double area_half_ns = control::pulse_area(
            control::gaussian_square_pulse(half_dt, opts.cx_width_fraction), cfg.dt);
        double u_amp = (std::numbers::pi / 4.0) / (cfg.cr.zx_rate * area_half_ns);
        if (u_amp > 0.95) {
            throw std::runtime_error("build_default_gates: CR pulse too short for ZX90");
        }
        const double beta0 =
            opts.drag_beta_scale * default_drag_beta(cfg, 0, opts.gate_duration_dt);
        const double beta1 =
            opts.drag_beta_scale * default_drag_beta(cfg, 1, opts.gate_duration_dt);
        const std::size_t xdur = opts.gate_duration_dt;

        auto build_echo = [&](double u) {
            pulse::Schedule echo("cr_echo");
            std::size_t t = 0;
            echo.insert(t, pulse::Play{pulse::gaussian_square_waveform(
                                           half_dt, {u, 0.0}, opts.cx_width_fraction),
                                       pulse::control_channel(0)});
            t += half_dt;
            echo.insert(t, pulse::Play{pulse::drag_waveform(xdur, {pi_amp[0], 0.0}, beta0,
                                                            opts.drag_sigma_fraction),
                                       pulse::drive_channel(0)});
            t += xdur;
            echo.insert(t, pulse::Play{pulse::gaussian_square_waveform(
                                           half_dt, {-u, 0.0}, opts.cx_width_fraction),
                                       pulse::control_channel(0)});
            t += half_dt;
            echo.insert(t, pulse::Play{pulse::drag_waveform(xdur, {pi_amp[0], 0.0}, beta0,
                                                            opts.drag_sigma_fraction),
                                       pulse::drive_channel(0)});
            return echo;
        };

        // Calibrate u so the conditional-rotation difference is pi (ZX90).
        {
            obs::Span span("executor.calibrate_cx");
            for (int iter = 0; iter < 4; ++iter) {
                const Mat sup = device.schedule_superop_2q(build_echo(u_amp));
                double diff = conditional_angle(sup, 0) - conditional_angle(sup, 1);
                // Unwrap into (0, 2 pi) -- the physical angle grows with u.
                if (diff < 0.0) diff += 2.0 * std::numbers::pi;
                if (std::abs(diff) < 1e-12) break;
                u_amp = std::min(u_amp * std::numbers::pi / diff, 0.95);
            }
        }

        pulse::Schedule cx("cx_default_echo_cr");
        // Local pre-rotations: RZ(-pi/2) on control (virtual), RX(-pi/2) on
        // target (negative-amplitude half-pi DRAG).
        cx.insert(0, pulse::ShiftPhase{std::numbers::pi / 2.0, pulse::drive_channel(0)});
        cx.insert(0, pulse::Play{pulse::drag_waveform(xdur, {-0.5 * pi_amp[1], 0.0}, beta1,
                                                      opts.drag_sigma_fraction),
                                 pulse::drive_channel(1)});
        const pulse::Schedule echo = build_echo(u_amp);
        for (const auto& [t, inst] : echo.instructions()) cx.insert(xdur + t, inst);
        map.add("cx", {0, 1}, cx);
    }
    return map;
}

}  // namespace qoc::device
