#include "control/goat.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "control/control_problem.hpp"
#include "optim/solver.hpp"

namespace qoc::control {

namespace {

/// Raw (pre-squash) control value and its parameter Jacobian row for one
/// control at one time.
struct BasisEval {
    double envelope;
    std::vector<double> basis;  ///< sin/cos values, 2 * n_harmonics
};

BasisEval eval_basis(double t, double evo_time, const GoatOptions& opts) {
    BasisEval out;
    out.envelope =
        opts.use_envelope ? std::sin(std::numbers::pi * t / evo_time) : 1.0;
    out.basis.resize(2 * opts.n_harmonics);
    for (std::size_t n = 0; n < opts.n_harmonics; ++n) {
        const double w = 2.0 * std::numbers::pi * static_cast<double>(n + 1) / evo_time;
        out.basis[2 * n] = std::sin(w * t);
        out.basis[2 * n + 1] = std::cos(w * t);
    }
    return out;
}

}  // namespace

ControlAmplitudes goat_controls(const std::vector<double>& params, std::size_t n_ctrl,
                                double evo_time, const GoatOptions& opts) {
    const std::size_t per_ctrl = 2 * opts.n_harmonics;
    if (params.size() != n_ctrl * per_ctrl) {
        throw std::invalid_argument("goat_controls: parameter count mismatch");
    }
    ControlAmplitudes amps(opts.n_fine, std::vector<double>(n_ctrl, 0.0));
    const double dt = evo_time / static_cast<double>(opts.n_fine);
    for (std::size_t k = 0; k < opts.n_fine; ++k) {
        const double t = (static_cast<double>(k) + 0.5) * dt;
        const BasisEval be = eval_basis(t, evo_time, opts);
        for (std::size_t j = 0; j < n_ctrl; ++j) {
            double raw = 0.0;
            for (std::size_t m = 0; m < per_ctrl; ++m) {
                raw += params[j * per_ctrl + m] * be.basis[m];
            }
            raw *= be.envelope;
            amps[k][j] =
                (opts.amp_bound > 0.0) ? opts.amp_bound * std::tanh(raw / opts.amp_bound) : raw;
        }
    }
    return amps;
}

GoatResult goat_optimize(const GrapeProblem& problem, const optim::SolverOptions& opts,
                         const GoatOptions& knobs) {
    const std::size_t n_ctrl = problem.system.ctrls.size();
    if (n_ctrl == 0) throw std::invalid_argument("goat_optimize: no controls");
    if (knobs.n_harmonics == 0 || knobs.n_fine == 0) {
        throw std::invalid_argument("goat_optimize: empty parameterization");
    }
    const std::size_t per_ctrl = 2 * knobs.n_harmonics;
    const std::size_t n_params = n_ctrl * per_ctrl;
    const double evo_time = problem.evo_time;
    const double dt = evo_time / static_cast<double>(knobs.n_fine);

    // Fine-grid problem used for error/gradient evaluation (the evaluator
    // never clips; the squash is what bounds the amplitudes).
    GrapeProblem fine = problem;
    fine.n_timeslots = knobs.n_fine;
    fine.energy_penalty = 0.0;
    // The evaluator validates initial_amps against the fine grid; the seed
    // table is never read by objective()/fid_err(), so a zero table of the
    // right shape stands in for the coarse one inherited from `problem`.
    fine.initial_amps.assign(knobs.n_fine, std::vector<double>(n_ctrl, 0.0));
    const ControlProblem cp(fine);

    std::vector<double> theta0 = knobs.initial_params;
    if (theta0.empty()) {
        theta0.assign(n_params, 0.0);
        // Seed the cos coefficient of the first harmonic: with the
        // sin(pi t/T) envelope the sin harmonic has exactly zero net area
        // (a PSU saddle with vanishing gradient), while cos(w1 t) does not.
        theta0[1] = 0.3;
        for (std::size_t j = 1; j < n_ctrl; ++j) theta0[j * per_ctrl + 1] = 0.05;
    } else if (theta0.size() != n_params) {
        throw std::invalid_argument("goat_optimize: initial_params size mismatch");
    }

    // Precompute basis rows per fine slot.
    std::vector<BasisEval> basis(knobs.n_fine);
    for (std::size_t k = 0; k < knobs.n_fine; ++k) {
        basis[k] = eval_basis((static_cast<double>(k) + 0.5) * dt, evo_time, knobs);
    }

    GoatResult result;
    result.initial_amps = goat_controls(theta0, n_ctrl, evo_time, knobs);
    optim::SolverProblem sp;
    sp.objective = [&](const std::vector<double>& theta, std::vector<double>& grad) {
        // Sample controls and keep the raw values for the squash Jacobian.
        ControlAmplitudes amps(knobs.n_fine, std::vector<double>(n_ctrl, 0.0));
        std::vector<std::vector<double>> raw(knobs.n_fine, std::vector<double>(n_ctrl, 0.0));
        for (std::size_t k = 0; k < knobs.n_fine; ++k) {
            for (std::size_t j = 0; j < n_ctrl; ++j) {
                double r = 0.0;
                for (std::size_t m = 0; m < per_ctrl; ++m) {
                    r += theta[j * per_ctrl + m] * basis[k].basis[m];
                }
                r *= basis[k].envelope;
                raw[k][j] = r;
                amps[k][j] = (knobs.amp_bound > 0.0)
                                 ? knobs.amp_bound * std::tanh(r / knobs.amp_bound)
                                 : r;
            }
        }

        std::vector<double> amp_grad;
        const double err = cp.objective(cp.flatten(amps), amp_grad);

        // Chain rule: d err / d theta = sum_k d err / d u_k * d u_k / d theta.
        grad.assign(n_params, 0.0);
        for (std::size_t k = 0; k < knobs.n_fine; ++k) {
            for (std::size_t j = 0; j < n_ctrl; ++j) {
                double du = amp_grad[k * n_ctrl + j] * basis[k].envelope;
                if (knobs.amp_bound > 0.0) {
                    const double c = std::cosh(raw[k][j] / knobs.amp_bound);
                    du /= c * c;  // d/dr [B tanh(r/B)] = sech^2(r/B)
                }
                for (std::size_t m = 0; m < per_ctrl; ++m) {
                    grad[j * per_ctrl + m] += du * basis[k].basis[m];
                }
            }
        }
        return err;
    };

    optim::SolverOptions lopts = record_iterations(result, opts);
    if (!lopts.max_iterations) lopts.max_iterations = 300;
    if (!lopts.target_f) lopts.target_f = 1e-10;
    if (!lopts.telemetry_label) lopts.telemetry_label = "goat";
    const optim::Bounds bounds =
        optim::Bounds::uniform(n_params, -knobs.param_bound, knobs.param_bound);

    {
        std::vector<double> g;
        result.initial_fid_err = sp.objective(theta0, g);
    }
    const optim::OptimResult opt = optim::find_solver("lbfgsb").solve(sp, theta0, bounds, lopts);

    result.params = opt.x;
    result.final_amps = goat_controls(opt.x, n_ctrl, evo_time, knobs);
    result.final_evolution = cp.evolution(result.final_amps);
    result.final_fid_err = cp.fid_err_of(result.final_evolution);
    result.iterations = opt.iterations;
    result.evaluations = opt.evaluations;
    result.reason = opt.reason;
    return result;
}

}  // namespace qoc::control
