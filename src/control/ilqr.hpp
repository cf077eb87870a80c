/// \file ilqr.hpp
/// \brief Iterative LQR (iLQR) for closed-system piecewise-constant pulse
///        design -- a trajectory optimizer that exploits the sequential
///        structure GRAPE's monolithic gradient flattens away.
///
/// State: the realified evolution operator x_k = vec([Re U_k; Im U_k]) per
/// column; dynamics x_{k+1} = F_k(u_k) x_k with F_k = I_d (x) realify(P_k),
/// P_k = expm(A(u_k)).  The per-slot linearization (P_k and dP_k/du_j) comes
/// from `ControlProblem::slot_propagator_and_derivs`, the same shared-Pade
/// Frechet engine the GRAPE gradient uses, so the model matches the exact
/// objective arithmetic.  The backward pass never forms F_k: multiplying by
/// realify(P) blockwise is just complex arithmetic with P, and
/// realify(P)^T = realify(P^dag).
///
/// Control bounds use the projected backward pass (Tassa-style): the
/// feedforward step is clamped to the box and the feedback rows of clamped
/// controls are zeroed, with a Levenberg regularizer mu on Q_uu that grows
/// when the factorization or the forward line search fails.
///
/// Closed systems only (kPsu / kSu fidelity, including subspace-isometry and
/// state-transfer problems); open (Liouvillian) problems throw.

#pragma once

#include "control/grape.hpp"

namespace qoc::control {

/// iLQR's algorithm knobs; the budget comes from `optim::SolverOptions`.
struct IlqrOptions {
    double mu_init = 1e-6;   ///< initial Levenberg regularizer on Q_uu
    double mu_factor = 8.0;  ///< regularizer growth/shrink factor
    double mu_max = 1e10;    ///< give up (line-search failure) past this
    double mu_min = 1e-8;    ///< regularizer floor after accepted steps
    int n_alpha = 8;         ///< forward-pass step halvings (alpha = 1 .. 2^-(n-1))
};

/// iLQR over an already-constructed evaluator.  Budget from `opts`; unset
/// fields mean 200 accepted iterations, 10000 forward rollouts (each n_ts
/// Frechet calls), no target (`target_f` bounds the total objective, fidelity
/// error + energy penalty), relative-decrease `f_tol` 1e-12 and the
/// telemetry label "ilqr".  Throws `std::invalid_argument` for open-system
/// problems.
GrapeResult ilqr_optimize(const ControlProblem& cp, const optim::SolverOptions& opts = {},
                          const IlqrOptions& knobs = {});

/// Convenience entry point over a `GrapeProblem` (closed-system only).
GrapeResult ilqr_unitary(const GrapeProblem& problem, const optim::SolverOptions& opts = {},
                         const IlqrOptions& knobs = {});

}  // namespace qoc::control
