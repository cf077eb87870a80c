/// Ablation A6: robust (ensemble) GRAPE vs nominal GRAPE under calibration
/// drift -- the "possible future improvements" the paper's Discussion asks
/// for.  One X pulse is optimized on the nominal model, another over a
/// detuning ensemble; both are executed across a week of drifted devices.

#include "bench_common.hpp"

#include "quantum/fidelity.hpp"
#include "quantum/operators.hpp"
#include "control/pulse_shapes.hpp"
#include <numbers>

int main() {
    using namespace qoc;
    using namespace qoc::bench;
    banner("Ablation A6", "robust ensemble design vs nominal design under drift");

    const auto nominal_cfg = device::nominal_model(device::ibmq_montreal());
    const auto& q0 = nominal_cfg.qubit(0);

    // Shared problem: X on the 3-level transmon, 480 dt.
    control::GrapeProblem prob;
    prob.system.drift = quantum::duffing_drift(3, 0.0, q0.anharmonicity);
    prob.system.ctrls = {0.5 * q0.omega_max * quantum::drive_x(3),
                         0.5 * q0.omega_max * quantum::drive_y(3)};
    prob.target = g::x();
    prob.subspace_isometry = quantum::qubit_isometry(3);
    prob.n_timeslots = 48;
    prob.evo_time = 480.0 * nominal_cfg.dt;
    prob.amp_lower = -0.15;
    prob.amp_upper = 0.15;
    prob.energy_penalty = 0.02;
    // Area-matched Gaussian seed (a flat seed is a degenerate starting point).
    const auto env = control::gaussian_pulse(48);
    const double area = control::pulse_area(env, prob.evo_time / 48.0) * q0.omega_max;
    prob.initial_amps.assign(48, {0.0, 0.0});
    for (std::size_t k = 0; k < 48; ++k) {
        prob.initial_amps[k][0] = env[k] * std::numbers::pi / area;
    }

    const auto nominal_design = control::grape_unitary(prob, {.max_iterations = 400});

    // Ensemble over a +-240 kHz detuning spread (a bad calibration week).
    const double delta = 1.5e-3;  // rad/ns
    const std::vector<linalg::Mat> ensemble = {(-delta) * quantum::number_op(3),
                                               linalg::Mat(3, 3),
                                               delta * quantum::number_op(3)};
    const auto robust_design =
        control::grape_robust(prob, ensemble, {1.0, 1.0, 1.0}, {.max_iterations = 400});

    std::printf("nominal design: model err %.2e\n", nominal_design.final_fid_err);
    std::printf("robust design : mean model err %.2e (members:",
                robust_design.final_fid_err);
    for (double e : robust_design.member_errors) std::printf(" %.1e", e);
    std::printf(")\n\n");

    const auto to_schedule = [&](const control::GrapeResult& d, const char* name) {
        return amps_to_schedule(d.final_amps, 0, 1, 480, pulse::drive_channel(0), name);
    };
    const auto nom_sched = to_schedule(nominal_design, "x_nominal");
    const auto rob_sched = to_schedule(robust_design, "x_robust");

    // Error vs detuning sweep: the nominal pulse degrades quadratically away
    // from its design point; the ensemble-trained pulse stays flat.
    std::printf("%-16s %-20s %-20s\n", "detuning [kHz]", "nominal-design err",
                "robust-design err");
    double nom_worst = 0.0, rob_worst = 0.0;
    for (double frac : {-1.3, -1.0, -0.5, 0.0, 0.5, 1.0, 1.3}) {
        auto cfg = device::ibmq_montreal();
        cfg.qubits[0].detuning = frac * delta;
        device::PulseExecutor dev(cfg);
        const auto nom_sup = dev.schedule_superop_1q(nom_sched, 0);
        const auto rob_sup = dev.schedule_superop_1q(rob_sched, 0);
        const double nom_err =
            1.0 - quantum::average_gate_fidelity_subspace(g::x(), nom_sup, 3);
        const double rob_err =
            1.0 - quantum::average_gate_fidelity_subspace(g::x(), rob_sup, 3);
        nom_worst = std::max(nom_worst, nom_err);
        rob_worst = std::max(rob_worst, rob_err);
        std::printf("%-16.0f %-20.3e %-20.3e\n", frac * delta / (2.0 * M_PI) * 1e6, nom_err,
                    rob_err);
    }
    std::printf("\nworst-case error over the sweep: nominal %.3e, robust %.3e -> robust %s\n",
                nom_worst, rob_worst, rob_worst < nom_worst ? "wins" : "does not win");
    return 0;
}
