#include "control/pulseoptim.hpp"

#include <algorithm>
#include <stdexcept>

#include "control/control_problem.hpp"
#include "control/crab.hpp"
#include "control/krotov.hpp"
#include "control/pulse_shapes.hpp"
#include "quantum/superop.hpp"

namespace qoc::control {

const char* method_name(OptimMethod method) {
    switch (method) {
        case OptimMethod::kLbfgsB: return "lbfgsb";
        case OptimMethod::kGradientDescent: return "gradient_descent";
        case OptimMethod::kCrab: return "crab";
        case OptimMethod::kKrotov: return "krotov";
    }
    throw std::invalid_argument("method_name: unknown OptimMethod");
}

ControlAmplitudes build_initial_amps(const PulseOptimSpec& spec) {
    const std::size_t n_ts = spec.n_timeslots;
    const std::size_t n_ctrl = spec.h_ctrls.size();
    if (n_ctrl == 0) throw std::invalid_argument("pulse_optim: no control Hamiltonians");
    if (n_ts == 0) throw std::invalid_argument("pulse_optim: n_timeslots must be positive");
    if (spec.explicit_initial_amps) {
        ControlAmplitudes amps = *spec.explicit_initial_amps;
        if (amps.size() != n_ts) {
            throw std::invalid_argument("pulse_optim: explicit seed slot count mismatch");
        }
        for (auto& slot : amps) {
            if (slot.size() != n_ctrl) {
                throw std::invalid_argument("pulse_optim: explicit seed control count mismatch");
            }
            for (double& v : slot) v = std::clamp(v, spec.amp_lower, spec.amp_upper);
        }
        return amps;
    }

    std::vector<std::vector<double>> per_ctrl(n_ctrl);
    switch (spec.initial_pulse) {
        case InitialPulseType::kDrag: {
            // Controls pair up as (I, Q): even index -> Gaussian, odd -> the
            // derivative quadrature.  A lone control gets the Gaussian.
            const DragPulse d = drag_pulse(n_ts);
            for (std::size_t j = 0; j < n_ctrl; ++j) {
                per_ctrl[j] = (j % 2 == 0) ? d.in_phase : d.quadrature;
            }
            break;
        }
        case InitialPulseType::kGaussian:
            for (auto& p : per_ctrl) p = gaussian_pulse(n_ts);
            break;
        case InitialPulseType::kGaussianSquare:
            for (auto& p : per_ctrl) p = gaussian_square_pulse(n_ts);
            break;
        case InitialPulseType::kSine:
            for (auto& p : per_ctrl) p = sine_pulse(n_ts);
            break;
        case InitialPulseType::kSquare:
            for (auto& p : per_ctrl) p = square_pulse(n_ts);
            break;
        case InitialPulseType::kRandom:
            for (std::size_t j = 0; j < n_ctrl; ++j) {
                per_ctrl[j] = random_pulse(n_ts, spec.random_seed + j);
            }
            break;
        case InitialPulseType::kZero:
            for (auto& p : per_ctrl) p = zero_pulse(n_ts);
            break;
    }

    ControlAmplitudes amps(n_ts, std::vector<double>(n_ctrl));
    for (std::size_t k = 0; k < n_ts; ++k) {
        for (std::size_t j = 0; j < n_ctrl; ++j) {
            double v = spec.initial_scale * per_ctrl[j][k];
            amps[k][j] = std::clamp(v, spec.amp_lower, spec.amp_upper);
        }
    }
    return amps;
}

GrapeResult pulse_optim(const PulseOptimSpec& spec) {
    if (!spec.u_target.is_square()) {
        throw std::invalid_argument("pulse_optim: target must be square");
    }
    if (!spec.u_target.is_unitary(1e-8)) {
        throw std::invalid_argument("pulse_optim: target must be unitary");
    }
    for (const Mat& h : spec.h_ctrls) {
        if (h.rows() != spec.h_drift.rows()) {
            throw std::invalid_argument("pulse_optim: control dimension mismatch");
        }
    }

    const bool open_system = !spec.collapse_ops.empty();
    if (!open_system && spec.closed_fidelity == FidelityType::kTraceDiff) {
        throw std::invalid_argument(
            "pulse_optim: kTraceDiff needs collapse operators; use kPsu or kSu");
    }

    GrapeProblem prob;
    prob.n_timeslots = spec.n_timeslots;
    prob.evo_time = spec.evo_time;
    prob.amp_lower = spec.amp_lower;
    prob.amp_upper = spec.amp_upper;
    prob.amp_lower_per_ctrl = spec.amp_lower_per_ctrl;
    prob.amp_upper_per_ctrl = spec.amp_upper_per_ctrl;
    prob.energy_penalty = spec.energy_penalty;
    prob.initial_amps = build_initial_amps(spec);

    if (open_system) {
        if (spec.subspace_isometry) {
            throw std::invalid_argument(
                "pulse_optim: subspace fidelity not supported with collapse operators");
        }
        // Lift everything to Liouville space; compare against the ideal
        // (noise-free) unitary superoperator of the target.
        prob.system.drift = quantum::liouvillian(spec.h_drift, spec.collapse_ops);
        for (const Mat& h : spec.h_ctrls) {
            prob.system.ctrls.push_back(quantum::liouvillian_hamiltonian(h));
        }
        prob.target = quantum::unitary_superop(spec.u_target);
        prob.fidelity = FidelityType::kTraceDiff;
    } else {
        prob.system.drift = spec.h_drift;
        prob.system.ctrls = spec.h_ctrls;
        prob.target = spec.u_target;
        prob.fidelity = spec.closed_fidelity;
        prob.subspace_isometry = spec.subspace_isometry;
    }

    // ONE evaluator and ONE budget; every method runs on both.
    const ControlProblem cp(prob);
    optim::SolverOptions opts;
    opts.max_iterations = spec.max_iterations;
    opts.max_evaluations = spec.max_evaluations;
    opts.target_f = spec.target_fid_err;

    switch (spec.method) {
        case OptimMethod::kLbfgsB: return grape_solve(cp, optim::lbfgsb_minimize, opts);
        case OptimMethod::kGradientDescent:
            return grape_solve(cp, optim::gradient_descent_minimize, opts);
        case OptimMethod::kCrab: return crab_optimize(cp, opts, {.seed = spec.random_seed});
        case OptimMethod::kKrotov: return krotov_unitary(cp, opts);
    }
    throw std::invalid_argument("pulse_optim: unknown OptimMethod");
}

}  // namespace qoc::control
