/// Ablation A1: optimizer comparison on the same X-gate problem.  The
/// paper's Section 2.1 claims first-order GRAPE "converges very slowly" and
/// CRAB's "direct search approach makes the convergence very slow"; the
/// second-order GRAPE (L-BFGS-B) is the method of choice.  This bench
/// quantifies those claims on identical problems, then runs every
/// `OptimMethod` on one budget in a solver x gate x duration matrix, in
/// box-active cells, and in saturated fast-gate cells.

#include "bench_common.hpp"

#include "control/krotov.hpp"
#include "quantum/operators.hpp"
#include "control/pulse_shapes.hpp"
#include <algorithm>
#include <cmath>
#include <iterator>
#include <numbers>
#include <string>

int main() {
    using namespace qoc;
    using namespace qoc::bench;
    banner("Ablation A1", "L-BFGS-B vs first-order GRAPE vs CRAB (X-gate problem)");

    auto make_spec = [](control::OptimMethod method, int budget) {
        control::PulseOptimSpec spec;
        spec.h_drift = linalg::Mat(2, 2);
        spec.h_ctrls = {0.5 * quantum::sigma_x(), 0.5 * quantum::sigma_y()};
        spec.u_target = g::x();
        spec.n_timeslots = 32;
        spec.evo_time = 60.0;
        spec.initial_pulse = control::InitialPulseType::kDrag;
        spec.initial_scale = 0.08;
        spec.method = method;
        spec.max_iterations = budget;
        spec.max_evaluations = 20000;
        spec.target_fid_err = 1e-10;
        return spec;
    };

    std::vector<std::vector<std::string>> rows;
    auto run = [&](const char* name, control::OptimMethod method, int budget) {
        const auto res = control::pulse_optim(make_spec(method, budget));
        char err[32], iters[32], evals[32];
        std::snprintf(err, sizeof(err), "%.2e", res.final_fid_err);
        std::snprintf(iters, sizeof(iters), "%d", res.iterations);
        std::snprintf(evals, sizeof(evals), "%d", res.evaluations);
        rows.push_back({name, err, iters, evals, optim::to_string(res.reason)});
    };

    // Same evaluation budget (~60) for the gradient methods, then extended
    // budgets: the point is iterations-to-convergence, not reachability.
    run("L-BFGS-B (2nd-order GRAPE)", control::OptimMethod::kLbfgsB, 60);
    run("gradient descent, same budget", control::OptimMethod::kGradientDescent, 60);
    run("gradient descent, 500 iters", control::OptimMethod::kGradientDescent, 500);
    run("CRAB (Fourier basis + Nelder-Mead)", control::OptimMethod::kCrab, 4000);

    // Krotov with a larger step than pulse_optim's default (lambda = 1): the
    // step is a Krotov knob, so call the method directly on the same problem.
    {
        control::GrapeProblem prob;
        prob.system.drift = linalg::Mat(2, 2);
        prob.system.ctrls = {0.5 * quantum::sigma_x(), 0.5 * quantum::sigma_y()};
        prob.target = g::x();
        prob.n_timeslots = 32;
        prob.evo_time = 60.0;
        prob.initial_amps = control::build_initial_amps(make_spec(control::OptimMethod::kLbfgsB, 1));
        const auto kr = control::krotov_unitary(
            prob, {.max_iterations = 500, .target_f = 1e-10}, {.lambda = 0.5});
        char err[32], iters[32], evals[32];
        std::snprintf(err, sizeof(err), "%.2e", kr.final_fid_err);
        std::snprintf(iters, sizeof(iters), "%d", kr.iterations);
        std::snprintf(evals, sizeof(evals), "%d", kr.evaluations);
        rows.push_back({"Krotov (monotonic, sequential)", err, iters, evals,
                        optim::to_string(kr.reason)});
    }

    print_table("optimizer comparison (easy problem: 2-level X gate)",
                {"method", "final fidelity error", "iterations", "evaluations", "stop"},
                rows);

    // Part 2: a stiff problem -- Hadamard on the 3-level Duffing transmon
    // with subspace fidelity, where curvature information actually matters.
    rows.clear();
    const auto nominal = device::nominal_model(device::ibmq_montreal());
    control::GrapeProblem hard;
    hard.system.drift = quantum::duffing_drift(3, 0.0, nominal.qubit(0).anharmonicity);
    hard.system.ctrls = {0.5 * quantum::drive_x(3), 0.5 * quantum::drive_y(3)};
    hard.target = g::h();
    hard.subspace_isometry = quantum::qubit_isometry(3);
    hard.n_timeslots = 48;
    hard.evo_time = 1216.0 * nominal.dt;
    hard.amp_lower = -0.15;
    hard.amp_upper = 0.15;
    // Area-matched Gaussian seed (same for every method).
    {
        const auto env = control::gaussian_pulse(48);
        const double area = control::pulse_area(env, hard.evo_time / 48.0);
        hard.initial_amps.assign(48, {0.0, 0.0});
        for (std::size_t k = 0; k < 48; ++k) {
            hard.initial_amps[k][0] = env[k] * std::numbers::pi / area;
        }
    }

    auto add_row = [&](const char* name, const control::GrapeResult& res) {
        char err[32], iters[32], evals[32];
        std::snprintf(err, sizeof(err), "%.2e", res.final_fid_err);
        std::snprintf(iters, sizeof(iters), "%d", res.iterations);
        std::snprintf(evals, sizeof(evals), "%d", res.evaluations);
        rows.push_back({name, err, iters, evals, optim::to_string(res.reason)});
    };
    add_row("L-BFGS-B (2nd-order GRAPE)",
            control::grape_lbfgsb(hard, {.max_iterations = 200, .target_f = 1e-10}));
    add_row("gradient descent, 200 iters",
            control::grape_gradient_descent(hard, {.max_iterations = 200, .step = 0.1}));
    add_row("gradient descent, 2000 iters",
            control::grape_gradient_descent(hard, {.max_iterations = 2000, .step = 0.1}));
    add_row("Krotov, 48 slots (too coarse)",
            control::krotov_unitary(hard, {.max_iterations = 500, .target_f = 1e-10},
                                    {.lambda = 2.0}));
    // Krotov's sequential update needs dt*||H|| << 1 (the anharmonic phase
    // per 48-slot step is ~12 rad); with per-4dt slots it is monotone and fast.
    {
        control::GrapeProblem fine = hard;
        fine.n_timeslots = 608;
        const auto env = control::gaussian_pulse(608);
        const double area = control::pulse_area(env, fine.evo_time / 608.0);
        fine.initial_amps.assign(608, {0.0, 0.0});
        for (std::size_t k = 0; k < 608; ++k) {
            fine.initial_amps[k][0] = env[k] * std::numbers::pi / area;
        }
        add_row("Krotov, 608 slots",
                control::krotov_unitary(fine, {.max_iterations = 500, .target_f = 1e-10},
                                        {.lambda = 2.0}));
    }
    print_table("optimizer comparison (stiff problem: 3-level Duffing Hadamard)",
                {"method", "final fidelity error", "iterations", "evaluations", "stop"},
                rows);

    // Part 3: the method matrix -- every OptimMethod x paper gate x pulse
    // duration, all through the same pulse_optim front end with the same
    // budget.  Wall time comes from the methods' own telemetry records
    // (SolverLoop timestamps), not a clock in this file.
    rows.clear();
    struct GateCase {
        const char* name;
        linalg::Mat target;
    };
    const GateCase gates[] = {{"x", g::x()}, {"sx", g::sx()}, {"h", g::h()}};
    using M = control::OptimMethod;
    const M methods[] = {M::kLbfgsB, M::kGradientDescent, M::kKrotov, M::kCrab};
    auto wall_ms = [](const control::GrapeResult& res) {
        char ms[32];
        std::snprintf(ms, sizeof(ms), "%.1f",
                      res.iteration_records.empty()
                          ? 0.0
                          : res.iteration_records.back().wall_time_s * 1e3);
        return std::string(ms);
    };
    // Peak |u| of each gate's T=30 L-BFGS-B design under the +-1 hardware
    // box (which it never touches): the reference for the box-active cells.
    double peak_t30[std::size(gates)] = {};
    for (const double evo : {30.0, 60.0}) {
        for (std::size_t gi = 0; gi < std::size(gates); ++gi) {
            const GateCase& gate = gates[gi];
            for (const M method : methods) {
                auto spec = make_spec(method, 300);
                spec.u_target = gate.target;
                spec.evo_time = evo;
                const auto res = control::pulse_optim(spec);
                if (method == M::kLbfgsB && evo == 30.0) {
                    for (const auto& slot : res.final_amps) {
                        for (const double u : slot) {
                            peak_t30[gi] = std::max(peak_t30[gi], std::abs(u));
                        }
                    }
                }
                char err[32], iters[32], evals[32], dur[32];
                std::snprintf(err, sizeof(err), "%.2e", res.final_fid_err);
                std::snprintf(iters, sizeof(iters), "%d", res.iterations);
                std::snprintf(evals, sizeof(evals), "%d", res.evaluations);
                std::snprintf(dur, sizeof(dur), "%.0f", evo);
                rows.push_back({control::method_name(method), gate.name, dur, err, iters, evals,
                                wall_ms(res), optim::to_string(res.reason)});
            }
        }
    }
    print_table("solver x gate x duration matrix (2-level closed designs)",
                {"solver", "gate", "T", "final fidelity error", "iterations", "evaluations",
                 "wall ms", "stop"},
                rows);

    // Box-active cells: the same budget with the symmetric amplitude box
    // shrunk to 0.9 x that peak, so the box binds and the solvers must
    // design against it (the box-active regime of Heimann et al.).  "at
    // bound" is the share of final amplitudes within 1e-6 (relative) of it.
    rows.clear();
    for (std::size_t gi = 0; gi < std::size(gates); ++gi) {
        const double bound = 0.9 * peak_t30[gi];
        for (const M method : methods) {
            auto spec = make_spec(method, 300);
            spec.u_target = gates[gi].target;
            spec.evo_time = 30.0;
            spec.amp_lower = -bound;
            spec.amp_upper = bound;
            const auto res = control::pulse_optim(spec);
            std::size_t n_amps = 0, n_at_bound = 0;
            for (const auto& slot : res.final_amps) {
                for (const double u : slot) {
                    ++n_amps;
                    if (std::abs(u) >= bound * (1.0 - 1e-6)) ++n_at_bound;
                }
            }
            char bnd[32], err[32], iters[32], evals[32], pct[32];
            std::snprintf(bnd, sizeof(bnd), "%.4f", bound);
            std::snprintf(err, sizeof(err), "%.2e", res.final_fid_err);
            std::snprintf(iters, sizeof(iters), "%d", res.iterations);
            std::snprintf(evals, sizeof(evals), "%d", res.evaluations);
            std::snprintf(pct, sizeof(pct), "%.0f",
                          100.0 * static_cast<double>(n_at_bound) / static_cast<double>(n_amps));
            rows.push_back({control::method_name(method), gates[gi].name, bnd, err, iters, evals,
                            wall_ms(res), pct, optim::to_string(res.reason)});
        }
    }
    print_table("box-active cells (T = 30, |u| <= 0.9 x the unconstrained L-BFGS-B peak)",
                {"solver", "gate", "bound", "final fidelity error", "iterations", "evaluations",
                 "wall ms", "% at bound", "stop"},
                rows);

    // Part 4: saturated cells -- the fast-gate regime (Werninghaus et al.)
    // where the box sits at or below what the gate needs.  X at 96/160 dt
    // and sqrt(X) at 64/144 dt on the 3-level closed transmon (X+Y drive,
    // subspace fidelity), DRAG seed area-matched to the rotation angle and
    // clipped to the box, and the box at 0.6/0.9/1.2 x the constant
    // amplitude whose area is that angle.  Same budget as part 3.
    rows.clear();
    const auto& q0 = nominal.qubit(0);
    struct SaturatedCase {
        const char* name;
        linalg::Mat target;
        double angle;
        std::size_t duration_dt;
    };
    const SaturatedCase sat_cases[] = {{"x", g::x(), std::numbers::pi, 96},
                                       {"x", g::x(), std::numbers::pi, 160},
                                       {"sx", g::sx(), std::numbers::pi / 2, 64},
                                       {"sx", g::sx(), std::numbers::pi / 2, 144}};
    for (const SaturatedCase& cell : sat_cases) {
        const double evo = static_cast<double>(cell.duration_dt) * nominal.dt;
        const std::size_t n_ts = cell.duration_dt / 4;
        const double u_const = cell.angle / (q0.omega_max * evo);
        const double env_area =
            control::pulse_area(control::gaussian_pulse(n_ts), evo / static_cast<double>(n_ts));
        for (const double factor : {0.6, 0.9, 1.2}) {
            const double bound = factor * u_const;
            for (const M method : methods) {
                control::PulseOptimSpec spec;
                spec.h_drift = quantum::duffing_drift(3, 0.0, q0.anharmonicity);
                spec.h_ctrls = {0.5 * q0.omega_max * quantum::drive_x(3),
                                0.5 * q0.omega_max * quantum::drive_y(3)};
                spec.u_target = cell.target;
                spec.subspace_isometry = quantum::qubit_isometry(3);
                spec.n_timeslots = n_ts;
                spec.evo_time = evo;
                spec.initial_pulse = control::InitialPulseType::kDrag;
                spec.initial_scale = cell.angle / (q0.omega_max * env_area);
                spec.amp_lower = -bound;
                spec.amp_upper = bound;
                spec.method = method;
                spec.max_iterations = 300;
                spec.max_evaluations = 20000;
                spec.target_fid_err = 1e-10;
                const auto res = control::pulse_optim(spec);
                std::size_t n_amps = 0, n_at_bound = 0;
                for (const auto& slot : res.final_amps) {
                    for (const double u : slot) {
                        ++n_amps;
                        if (std::abs(u) >= bound * (1.0 - 1e-6)) ++n_at_bound;
                    }
                }
                char dur[32], fac[32], err[32], iters[32], evals[32], pct[32];
                std::snprintf(dur, sizeof(dur), "%zu", cell.duration_dt);
                std::snprintf(fac, sizeof(fac), "%.1f", factor);
                std::snprintf(err, sizeof(err), "%.2e", res.final_fid_err);
                std::snprintf(iters, sizeof(iters), "%d", res.iterations);
                std::snprintf(evals, sizeof(evals), "%d", res.evaluations);
                std::snprintf(pct, sizeof(pct), "%.0f",
                              100.0 * static_cast<double>(n_at_bound) /
                                  static_cast<double>(n_amps));
                rows.push_back({control::method_name(method), cell.name, dur, fac, err, iters,
                                evals, wall_ms(res), pct, optim::to_string(res.reason)});
            }
        }
    }
    print_table("saturated cells (3-level closed, X+Y, |u| <= factor x area-matched constant)",
                {"solver", "gate", "T dt", "bound x", "final fidelity error", "iterations",
                 "evaluations", "wall ms", "% at bound", "stop"},
                rows);

    std::printf("\n[paper: 'GRAPE converges very slowly' (first order), CRAB's 'direct\n"
                " search approach makes the convergence very slow'; the second-order\n"
                " L-BFGS-B is the method of choice.  Bonus finding: Krotov's sequential\n"
                " update also needs a fine time grid (dt*||H|| << 1) where GRAPE's exact\n"
                " per-slot exponentials do not]\n");
    return 0;
}
