/// \file grape.hpp
/// \brief GRAPE (gradient ascent pulse engineering) for closed and open
///        (Lindblad) systems with exact gradients and the L-BFGS-B driver --
///        the paper's "second-order GRAPE".
///
/// The control problem: piecewise-constant amplitudes u[k][j] over
/// `n_timeslots` slots of length `evo_time / n_timeslots`, system
///   H(t) = H_0 + sum_j u_j(t) H_j   (closed)  or
///   L(t) = L_0 + sum_j u_j(t) L_j   (open, Liouvillian form),
/// minimizing the gate infidelity against a target unitary (closed) or
/// target superoperator (open).  Gradients are exact: every control's
/// gradient in a slot comes from one adjoint-direction Frechet derivative.

#pragma once

#include <optional>
#include <vector>

#include "linalg/matrix.hpp"
#include "optim/gradient_descent.hpp"
#include "optim/lbfgsb.hpp"
#include "optim/problem.hpp"

namespace qoc::control {

using linalg::Mat;

/// Control amplitudes: `amps[k][j]` is the amplitude of control `j` during
/// timeslot `k`.
using ControlAmplitudes = std::vector<std::vector<double>>;

/// A bilinear control system `H(t) = H_0 + sum_j u_j(t) H_j` (closed) or
/// `L(t) = L_0 + sum_j u_j(t) L_j` (open, generators already in
/// superoperator form).
struct PwcSystem {
    Mat drift;               ///< H_0 or L_0
    std::vector<Mat> ctrls;  ///< H_j or L_j
};

/// Which cost function drives the optimization.
enum class FidelityType {
    kPsu,        ///< 1 - |Tr(U_t^dag U)|^2 / d^2 (phase invariant; paper Eq. for C)
    kSu,         ///< 1 - Re Tr(U_t^dag U) / d (phase sensitive)
    kTraceDiff,  ///< ||E_t - E||_F^2 / (2 d^2) on superoperators (open systems)
};

struct GrapeProblem {
    PwcSystem system;  ///< drift + control generators (H's or L's)
    Mat target;        ///< target unitary (closed) or superoperator (open)
    std::size_t n_timeslots = 0;
    double evo_time = 0.0;
    FidelityType fidelity = FidelityType::kPsu;

    /// Optional isometry P (dim x d_sub) restricting the fidelity to a
    /// computational subspace of a larger (e.g. 3-level transmon) space.
    /// Closed-system only.  `target` must then be d_sub x d_sub.
    std::optional<Mat> subspace_isometry;

    /// Optional state-to-state transfer: when set, the cost is
    /// 1 - |<psi_target| U |psi_0>|^2 and `target` is ignored.  Closed
    /// system, kPsu only.  Both kets must be normalized column vectors.
    struct StateTransfer {
        Mat psi_initial;
        Mat psi_target;
    };
    std::optional<StateTransfer> state_transfer;

    double amp_lower = -1.0;  ///< amplitude bounds (paper: hardware range +-1)
    double amp_upper = 1.0;

    /// Optional per-control bounds overriding amp_lower/amp_upper (size must
    /// equal the number of controls when non-empty).  Lets e.g. a weak local
    /// drive be capped tightly while the CR channel keeps headroom.
    std::vector<double> amp_lower_per_ctrl;
    std::vector<double> amp_upper_per_ctrl;

    /// Optional pulse-energy (fluence) regularizer: adds
    /// `energy_penalty * mean(u^2)` to the cost.  Steers the optimizer
    /// toward low-amplitude solutions, which real drive chains reward
    /// (amplitude noise, heating); zero disables it.
    double energy_penalty = 0.0;

    /// Starting amplitudes [slot][ctrl]; must match n_timeslots and the
    /// number of controls.
    ControlAmplitudes initial_amps;
};

/// The one result every pulse-optimization method returns (GRAPE through
/// any gradient solver, Krotov, CRAB, robust GRAPE).
struct GrapeResult {
    ControlAmplitudes initial_amps;
    ControlAmplitudes final_amps;
    double initial_fid_err = 1.0;
    double final_fid_err = 1.0;
    Mat final_evolution;  ///< achieved unitary / superoperator
    int iterations = 0;
    int evaluations = 0;
    optim::StopReason reason = optim::StopReason::kMaxIterations;
    /// Per-iteration optimizer telemetry (cost, grad norm, step, cumulative
    /// evaluations, wall time), one record per `optim::SolverLoop::emit`.
    std::vector<optim::IterationRecord> iteration_records;
};

class ControlProblem;  // the shared PWC evaluator (control_problem.hpp)

/// Every method's budget, callback and telemetry label arrive as one
/// `optim::SolverOptions`; unset fields keep the method's own default.
/// This returns `opts` with its callback wrapped so that each record is
/// appended to `result.iteration_records` before the caller's callback runs.
optim::SolverOptions record_iterations(GrapeResult& result, optim::SolverOptions opts);

/// GRAPE through any gradient-based solver: builds the exact-gradient
/// objective over `cp.bounds()` once and hands it to `solver`, e.g.
/// `grape_solve(cp, optim::lbfgsb_minimize, opts)` (or
/// `optim::gradient_descent_minimize`).
GrapeResult grape_solve(const ControlProblem& cp, optim::Minimizer solver,
                        const optim::SolverOptions& opts = {});

/// GRAPE with L-BFGS-B (the paper's method).  Open or closed, by the
/// problem's fidelity type: kTraceDiff takes Liouvillian generators in
/// `system` and the target superoperator in `target`.
GrapeResult grape_lbfgsb(const GrapeProblem& problem, const optim::SolverOptions& opts = {});

/// First-order GRAPE baseline: projected gradient descent (learning rate =
/// `opts.step`, default 0.1) for the convergence-comparison ablation; the
/// paper notes plain GRAPE "converges very slowly".  Open or closed, by the
/// problem's fidelity type.
GrapeResult grape_gradient_descent(const GrapeProblem& problem,
                                   const optim::SolverOptions& opts = {});

/// Result of a robust (ensemble) optimization: the shared pulse, its
/// weighted-average error, plus the per-member fidelity errors.
struct RobustGrapeResult : GrapeResult {
    std::vector<double> member_errors;  ///< final error per ensemble member
};

/// Robust GRAPE: optimizes ONE pulse against an ensemble of drift
/// Hamiltonians (e.g. a detuning spread modeling day-to-day calibration
/// drift).  Member i uses drift `system.drift + ensemble_drifts[i]`; the
/// cost is the weighted average of the members' fidelity errors.  This is
/// the standard ensemble-robust recipe the paper's Discussion asks for
/// ("this drifting of qubit properties can lead to fluctuations").
/// Closed-system only; L-BFGS-B.
RobustGrapeResult grape_robust(const GrapeProblem& problem,
                               const std::vector<Mat>& ensemble_drifts,
                               const std::vector<double>& weights,
                               const optim::SolverOptions& opts = {});

}  // namespace qoc::control
