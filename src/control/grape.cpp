#include "control/grape.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "contracts/matrix_checks.hpp"
#include "control/control_problem.hpp"

namespace qoc::control {

optim::SolverOptions record_iterations(GrapeResult& result, optim::SolverOptions opts) {
    optim::IterationCallback user = std::move(opts.iter_callback);
    opts.iter_callback = [&result, user = std::move(user)](const optim::IterationRecord& rec) {
        result.iteration_records.push_back(rec);
        if (user) user(rec);
    };
    return opts;
}

GrapeResult grape_solve(const ControlProblem& cp, optim::Minimizer solver,
                        const optim::SolverOptions& opts) {
    const GrapeProblem& problem = cp.problem();
    const optim::Bounds& bounds = cp.bounds();

    GrapeResult result;
    result.initial_amps = problem.initial_amps;
    result.initial_fid_err = cp.fid_err(problem.initial_amps);

    const optim::Objective objective = [&](const std::vector<double>& x,
                                           std::vector<double>& g) {
        // Hardware-range invariant: the solvers evaluate only in-box iterates
        // (the paper's +-1 PWC amplitude bound, or the user's box).
        if (contracts::enabled()) {
            for (std::size_t i = 0; i < x.size(); ++i) {
                contracts::check_in_range(x[i], bounds.lower[i], bounds.upper[i],
                                          "GRAPE: PWC amplitude iterate", 1e-10);
            }
        }
        return cp.objective(x, g);
    };

    const optim::OptimResult opt = solver(objective, cp.flatten(problem.initial_amps), bounds,
                                          record_iterations(result, opts));

    result.final_amps = cp.unflatten(opt.x);
    result.final_evolution = cp.evolution(result.final_amps);
    result.final_fid_err = cp.fid_err_of(result.final_evolution);
    result.iterations = opt.iterations;
    result.evaluations = opt.evaluations;
    result.reason = opt.reason;
    return result;
}

GrapeResult grape_lbfgsb(const GrapeProblem& problem, const optim::SolverOptions& opts) {
    return grape_solve(ControlProblem(problem), optim::lbfgsb_minimize, opts);
}

GrapeResult grape_gradient_descent(const GrapeProblem& problem,
                                   const optim::SolverOptions& opts) {
    return grape_solve(ControlProblem(problem), optim::gradient_descent_minimize, opts);
}

RobustGrapeResult grape_robust(const GrapeProblem& problem,
                               const std::vector<Mat>& ensemble_drifts,
                               const std::vector<double>& weights,
                               const optim::SolverOptions& opts) {
    if (ensemble_drifts.empty() || ensemble_drifts.size() != weights.size()) {
        throw std::invalid_argument("grape_robust: ensemble/weights mismatch");
    }
    if (problem.fidelity == FidelityType::kTraceDiff) {
        throw std::invalid_argument("grape_robust: closed-system only");
    }
    double wsum = 0.0;
    for (double w : weights) wsum += w;
    if (wsum <= 0.0) throw std::invalid_argument("grape_robust: weights must sum > 0");

    // One evaluator per ensemble member; they share the amplitude table.
    std::vector<std::unique_ptr<ControlProblem>> evals;
    for (std::size_t i = 0; i < ensemble_drifts.size(); ++i) {
        GrapeProblem member = problem;
        member.system.drift = problem.system.drift + ensemble_drifts[i];
        member.energy_penalty = 0.0;  // applied once, below
        evals.push_back(std::make_unique<ControlProblem>(member));
    }

    RobustGrapeResult result;
    result.initial_amps = problem.initial_amps;

    const optim::Objective objective = [&](const std::vector<double>& x,
                                           std::vector<double>& grad) {
        grad.assign(x.size(), 0.0);
        std::vector<double> g(x.size());
        double err = 0.0;
        for (std::size_t i = 0; i < evals.size(); ++i) {
            const double w = weights[i] / wsum;
            err += w * evals[i]->objective(x, g);
            for (std::size_t k = 0; k < x.size(); ++k) grad[k] += w * g[k];
        }
        if (problem.energy_penalty > 0.0) {
            const double pw = problem.energy_penalty / static_cast<double>(x.size());
            for (std::size_t k = 0; k < x.size(); ++k) {
                err += pw * x[k] * x[k];
                grad[k] += 2.0 * pw * x[k];
            }
        }
        return err;
    };

    const optim::OptimResult opt =
        optim::lbfgsb_minimize(objective, evals[0]->flatten(problem.initial_amps),
                               evals[0]->bounds(), record_iterations(result, opts));

    result.final_amps = evals[0]->unflatten(opt.x);
    result.iterations = opt.iterations;
    result.evaluations = opt.evaluations;
    result.reason = opt.reason;
    double werr = 0.0, ierr = 0.0;
    for (std::size_t i = 0; i < evals.size(); ++i) {
        const double e = evals[i]->fid_err(result.final_amps);
        result.member_errors.push_back(e);
        werr += weights[i] / wsum * e;
        ierr += weights[i] / wsum * evals[i]->fid_err(problem.initial_amps);
    }
    result.initial_fid_err = ierr;
    result.final_fid_err = werr;
    result.final_evolution = evals[0]->evolution(result.final_amps);
    return result;
}

}  // namespace qoc::control
