/// \file control_problem.hpp
/// \brief `control::ControlProblem` -- the ONE piecewise-constant control
///        evaluator every optimizer front end (GRAPE, Krotov, CRAB)
///        dispatches through.
///
/// Wraps a `GrapeProblem` (the common PWC problem statement) and exposes the
/// primitives an optimizer needs: slot exponents, final evolution, fidelity
/// error, and the exact objective gradient via one adjoint-direction
/// Frechet derivative per timeslot.  Validation, subspace/state-transfer
/// overlap handling and the fidelity formulas live HERE once, instead of
/// being re-derived per front end.
///
/// Parallelism: the per-timeslot propagator/gradient fan-outs run on
/// `qoc::runtime::TaskPool::global()`.  Each slot's expm factors live in
/// that slot's own workspace (they must survive from the propagator pass to
/// the gradient pass); per-task temporaries are leased from a
/// `runtime::WorkspacePool`.  Every slot writes only its own output
/// matrices and all reductions are serial, so results are bitwise
/// identical for any pool size.
///
/// Open systems (kTraceDiff) run in a real operator basis.  The
/// constructor rotates the Liouvillian drift, the control superoperators
/// and the target superoperator into the orthonormal Hermitian basis
///   {E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2}   (i < j)
/// of d x d operators, X -> V^dag X V with V's columns the vectorized basis
/// elements.  A map that preserves Hermiticity is a real matrix there, so
/// every slot exponential, Frechet derivative, forward/co-state product and
/// LU runs in real arithmetic (`RMat`, about a quarter of the complex
/// flops).  V is unitary, so ||T - E||_F^2 and its gradient are unchanged;
/// `evolution` and `slot_exponent` still return complex standard-basis
/// matrices.  The constructor rejects an open problem whose superoperator
/// dimension is not a perfect square, or whose drift, controls or target
/// do not preserve Hermiticity (imaginary part of V^dag X V above roundoff
/// relative to ||X||).

#pragma once

#include <vector>

#include "control/grape.hpp"
#include "linalg/expm.hpp"
#include "runtime/workspace_pool.hpp"

namespace qoc::control {

/// Reusable evaluator over a PWC control problem.  Construct once, evaluate
/// many times: propagator workspaces and partial-product storage are reused
/// across calls, so after the first evaluation at a fixed problem shape the
/// hot loop performs no heap allocation.
class ControlProblem {
public:
    /// Validates the problem (throws `std::invalid_argument` on a malformed
    /// spec, including per-control bounds whose size is not the control
    /// count, and an open problem the real basis cannot carry) and
    /// precomputes the box, overlap target and exponent directions.
    /// Open vs closed follows the fidelity type (`is_open`).
    explicit ControlProblem(const GrapeProblem& problem);

    /// kTraceDiff marks an open-system (superoperator) problem, kPsu/kSu a
    /// closed-system one.
    static bool is_open(const GrapeProblem& problem) {
        return problem.fidelity == FidelityType::kTraceDiff;
    }

    ControlProblem(const ControlProblem&) = delete;
    ControlProblem& operator=(const ControlProblem&) = delete;

    const GrapeProblem& problem() const { return prob_; }
    bool open_system() const { return open_; }

    std::size_t n_params() const { return n_ts_ * n_ctrl_; }
    std::size_t n_ctrl() const { return n_ctrl_; }
    std::size_t n_ts() const { return n_ts_; }
    double dt() const { return dt_; }

    /// Amplitude box over the flattened parameters (slot-major,
    /// control-minor): the per-control bounds when given, else the scalar
    /// pair.  Every method clamps or projects against this one box.
    const optim::Bounds& bounds() const { return bounds_; }

    /// Comparison matrix M of the trace overlap Tr(M^dag U): the plain
    /// target, the isometry-sandwiched target, or |psi_t><psi_0| for state
    /// transfer.  Krotov's co-state seeding reads this.
    const Mat& overlap_target() const { return overlap_target_; }

    /// Fidelity normalization (subspace dimension; 1 for state transfer).
    double norm_dim() const { return norm_dim_; }

    /// Flattened parameters -> amplitude table.  Throws
    /// `std::invalid_argument` unless `x.size() == n_params()`.
    ControlAmplitudes unflatten(const std::vector<double>& x) const;
    /// Amplitude table -> flattened parameters.  Throws
    /// `std::invalid_argument` unless the table is `n_ts()` x `n_ctrl()`.
    std::vector<double> flatten(const ControlAmplitudes& amps) const;

    /// Slot exponent `scale * (drift + sum u_j ctrl_j)` in the standard
    /// basis, written into `out` without allocating (on shape reuse).
    /// `amps` points at `n_ctrl()` contiguous amplitudes.
    void slot_exponent_into(const double* amps, Mat& out) const;

    /// Slot exponent `scale * (drift + sum u_j ctrl_j)`.  Throws
    /// `std::invalid_argument` unless `amps.size() == n_ctrl()`.
    Mat slot_exponent(const std::vector<double>& amps) const;

    /// Final evolution operator (standard basis) for an amplitude table.
    /// Throws `std::invalid_argument` unless the table is `n_ts()` x `n_ctrl()`.
    Mat evolution(const ControlAmplitudes& amps) const;

    /// Fidelity error of a final evolution operator (standard basis).
    double fid_err_of(const Mat& evo) const;

    /// Fidelity error of an amplitude table (no gradient); same shape rule
    /// as `evolution`.
    double fid_err(const ControlAmplitudes& amps) const;

    /// Full objective: fidelity error (plus energy penalty when configured)
    /// and its exact gradient with respect to the flattened amplitudes
    /// (slot-major, control-minor).  Throws `std::invalid_argument` unless
    /// `x.size() == n_params()`.
    double objective(const std::vector<double>& x, std::vector<double>& grad) const;

private:
    /// Evaluation storage for one matrix type: complex `Mat` for closed
    /// systems, real `RMat` for open ones.  Shapes stabilize after the
    /// first objective call, so reuse is allocation-free.
    template <class M>
    struct Engine {
        /// Per-task scratch: a Pade workspace for `evolution`, plus the
        /// slot/gradient temporaries.
        struct Scratch {
            linalg::PadeWorkspace<M> ws;
            M gen, prop, tmp;
        };
        runtime::WorkspacePool<Scratch> scratch;
        std::vector<linalg::PadeWorkspace<M>> slot_ws;  ///< per-slot Pade factors
        std::vector<M> props;  ///< per-slot propagators
        std::vector<M> fwd;    ///< fwd[k] = P_k ... P_0
        std::vector<M> bwd;    ///< co-states bwd[k] = C P_{N-1} ... P_{k+1}
    };

    template <class M>
    Engine<M>& engine() const;
    /// Slot exponent of an open problem in the real Hermitian basis.
    void slot_exponent_into(const double* amps, linalg::RMat& out) const;
    void check_amps(const ControlAmplitudes& amps, const char* who) const;
    template <class M>
    M propagate(const ControlAmplitudes& amps) const;
    /// Fidelity error and gradient (no energy penalty) in the engine's basis.
    template <class M>
    double cost_and_gradient(const std::vector<double>& x, std::vector<double>& grad) const;
    /// ||T - E||_F^2 / (2 D) for a real-basis evolution E.
    double trace_diff_cost(const linalg::RMat& evo) const;
    /// Validates an open problem and moves drift, controls and target
    /// into the real Hermitian basis.
    void to_open_real_basis();
    /// V^dag X V as a real matrix; throws unless X preserves Hermiticity.
    linalg::RMat to_real_basis(const Mat& x, const char* what) const;

    GrapeProblem prob_;
    bool open_;
    std::size_t n_ctrl_ = 0;
    std::size_t n_ts_ = 0;
    double dt_ = 0.0;
    double norm_dim_ = 1.0;
    optim::Bounds bounds_;
    Mat overlap_target_;
    std::vector<Mat> exp_dirs_;  ///< closed: -i dt H_j

    // Open systems: the basis change V (columns vec(B_alpha)) and the real
    // drift, controls, exponent directions dt L_j and target.
    Mat basis_;
    linalg::RMat rdrift_, rtarget_;
    std::vector<linalg::RMat> rctrls_, rexp_dirs_;

    // Reusable evaluation workspace (mutable: objective() is logically
    // const; these caches never change observable results).
    mutable Engine<Mat> closed_engine_;
    mutable Engine<linalg::RMat> open_engine_;
};

}  // namespace qoc::control
