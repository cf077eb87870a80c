/// \file krotov.hpp
/// \brief Krotov's method for closed-system gate synthesis.
///
/// The other foundational quantum-optimal-control algorithm the paper cites
/// (Goerz et al., SciPost Phys. 7, 80).  Unlike GRAPE's concurrent gradient
/// update, Krotov updates the controls *sequentially in time* using
/// backward-propagated co-states, which guarantees monotonic convergence of
/// the objective for any positive step parameter lambda.
///
/// Discretized first-order update for the PSU gate functional
/// F = |Tr(U_t^dag U)|^2 / d^2:
///   chi_k(T)   = (tau / d^2) U_t |e_k>          (co-state boundary)
///   chi_k(t)   : backward-propagated with the OLD controls
///   psi_k(t)   : forward-propagated with the NEW controls (sequential)
///   u_new_j(t) = u_old_j(t) + (1/lambda_j) Im sum_k <chi_k(t)|H_j|psi_k(t)>

#pragma once

#include "control/grape.hpp"

namespace qoc::control {

/// Krotov's algorithm knobs; the budget comes from `optim::SolverOptions`.
struct KrotovOptions {
    double lambda = 1.0;  ///< inverse step size (> 0); larger = smaller steps
    /// Stop when the per-iteration improvement drops below this.
    double delta_tol = 1e-14;
};

/// Runs Krotov's method on a closed-system GrapeProblem (kPsu or kSu;
/// subspace isometry supported; amplitude bounds, per-control ones
/// included, enforced by clipping each sequential update).  Budget from
/// `opts`; unset fields mean 200 iterations, target error 1e-10 and no
/// evaluation cap (one evaluation per sweep).  Records are labelled
/// "krotov" unless `opts.telemetry_label` says otherwise.
GrapeResult krotov_unitary(const GrapeProblem& problem, const optim::SolverOptions& opts = {},
                           const KrotovOptions& knobs = {});

/// Same, over an already-constructed shared evaluator (closed-system only).
GrapeResult krotov_unitary(const ControlProblem& cp, const optim::SolverOptions& opts = {},
                           const KrotovOptions& knobs = {});

}  // namespace qoc::control
