#include "control/control_problem.hpp"

#include <cmath>
#include <stdexcept>

#include "contracts/matrix_checks.hpp"
#include "obs/obs.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::control {

namespace {

using linalg::cplx;
constexpr cplx kI{0.0, 1.0};

}  // namespace

ControlProblem::ControlProblem(const GrapeProblem& problem, bool open_system)
    : prob_(problem), open_(open_system) {
    n_ctrl_ = prob_.system.ctrls.size();
    n_ts_ = prob_.n_timeslots;
    if (n_ts_ == 0) throw std::invalid_argument("GRAPE: n_timeslots must be positive");
    if (n_ctrl_ == 0) throw std::invalid_argument("GRAPE: need at least one control");
    if (prob_.evo_time <= 0.0) throw std::invalid_argument("GRAPE: evo_time must be positive");
    dt_ = prob_.evo_time / static_cast<double>(n_ts_);
    if (prob_.initial_amps.size() != n_ts_) {
        throw std::invalid_argument("GRAPE: initial_amps slot count mismatch");
    }
    for (const auto& slot : prob_.initial_amps) {
        if (slot.size() != n_ctrl_) {
            throw std::invalid_argument("GRAPE: initial_amps control count mismatch");
        }
    }
    bounds_ = optim::Bounds::uniform(n_params(), prob_.amp_lower, prob_.amp_upper);
    if (!prob_.amp_lower_per_ctrl.empty() || !prob_.amp_upper_per_ctrl.empty()) {
        if (prob_.amp_lower_per_ctrl.size() != n_ctrl_ ||
            prob_.amp_upper_per_ctrl.size() != n_ctrl_) {
            throw std::invalid_argument("GRAPE: per-control bounds size mismatch");
        }
        for (std::size_t k = 0; k < n_ts_; ++k) {
            for (std::size_t j = 0; j < n_ctrl_; ++j) {
                bounds_.lower[k * n_ctrl_ + j] = prob_.amp_lower_per_ctrl[j];
                bounds_.upper[k * n_ctrl_ + j] = prob_.amp_upper_per_ctrl[j];
            }
        }
    }
    if (open_ && prob_.fidelity != FidelityType::kTraceDiff) {
        throw std::invalid_argument("GRAPE (open): fidelity must be kTraceDiff");
    }
    if (!open_ && prob_.fidelity == FidelityType::kTraceDiff) {
        throw std::invalid_argument("GRAPE (closed): use kPsu or kSu");
    }

    // Comparison matrix for the trace overlap: plain target, the target
    // sandwiched into the big space by the subspace isometry, or the
    // rank-one |psi_t><psi_0| operator for state transfer.
    if (prob_.state_transfer) {
        if (open_) {
            throw std::invalid_argument("GRAPE: state transfer is closed-system only");
        }
        if (prob_.fidelity != FidelityType::kPsu) {
            throw std::invalid_argument("GRAPE: state transfer requires kPsu");
        }
        const Mat& psi0 = prob_.state_transfer->psi_initial;
        const Mat& psit = prob_.state_transfer->psi_target;
        if (psi0.cols() != 1 || psit.cols() != 1 ||
            psi0.rows() != prob_.system.drift.rows() || psit.rows() != psi0.rows()) {
            throw std::invalid_argument("GRAPE: state-transfer ket shape mismatch");
        }
        // |<psi_t|U|psi_0>| = |Tr(M^dag U)| with M = |psi_t><psi_0|.
        overlap_target_ = psit * psi0.adjoint();
        norm_dim_ = 1.0;
    } else if (prob_.subspace_isometry) {
        if (open_) {
            throw std::invalid_argument("GRAPE: subspace fidelity is closed-system only");
        }
        const Mat& p = *prob_.subspace_isometry;
        if (p.rows() != prob_.system.drift.rows() || p.cols() != prob_.target.rows()) {
            throw std::invalid_argument("GRAPE: isometry shape mismatch");
        }
        overlap_target_ = p * prob_.target * p.adjoint();
        norm_dim_ = static_cast<double>(prob_.target.rows());
    } else {
        if (prob_.target.rows() != prob_.system.drift.rows() ||
            prob_.target.cols() != prob_.system.drift.cols()) {
            throw std::invalid_argument("GRAPE: target dimension mismatch");
        }
        overlap_target_ = prob_.target;
        norm_dim_ = static_cast<double>(prob_.target.rows());
    }

    // Model invariants (checked builds only): Hermitian generators,
    // unitary gate targets / trace-preserving superoperator targets,
    // normalized transfer kets.
    if (contracts::enabled()) {
        if (!open_) {
            contracts::check_hermitian(prob_.system.drift, "GRAPE: drift H_0");
            for (const Mat& c : prob_.system.ctrls) {
                contracts::check_hermitian(c, "GRAPE: control H_j");
            }
            if (prob_.state_transfer) {
                contracts::check_normalized_ket(prob_.state_transfer->psi_initial,
                                                "GRAPE: psi_initial");
                contracts::check_normalized_ket(prob_.state_transfer->psi_target,
                                                "GRAPE: psi_target");
            } else {
                contracts::check_unitary(prob_.target, "GRAPE: target gate");
            }
        } else {
            contracts::check_trace_preserving(prob_.target, "GRAPE: target superop", 1e-6);
        }
    }

    // Pre-scale control generators into exponent directions.
    const cplx scale = open_ ? cplx{dt_, 0.0} : (-kI * dt_);
    for (const Mat& c : prob_.system.ctrls) exp_dirs_.push_back(scale * c);

    // Shared-Pade for both systems.  Closed-system slot exponents are
    // anti-Hermitian and *could* take the Daleckii-Krein spectral path
    // (kAuto), but the optimizer trajectory is chaotic in the last few
    // digits: switching the arithmetic shifts converged design errors at
    // the ~1e-6 level on the CX benchmark, so that switch needs its own
    // A/B against the EXPERIMENTS.md tables and the design bounds.  The
    // spectral path stays available to propagator builders, where no
    // optimizer feeds back on the result.
    method_ = linalg::ExpmMethod::kPade;
}

ControlAmplitudes ControlProblem::unflatten(const std::vector<double>& x) const {
    ControlAmplitudes amps(n_ts_, std::vector<double>(n_ctrl_));
    for (std::size_t k = 0; k < n_ts_; ++k)
        for (std::size_t j = 0; j < n_ctrl_; ++j) amps[k][j] = x[k * n_ctrl_ + j];
    return amps;
}

std::vector<double> ControlProblem::flatten(const ControlAmplitudes& amps) const {
    std::vector<double> x(n_params());
    for (std::size_t k = 0; k < n_ts_; ++k)
        for (std::size_t j = 0; j < n_ctrl_; ++j) x[k * n_ctrl_ + j] = amps[k][j];
    return x;
}

void ControlProblem::slot_exponent_into(const double* amps, Mat& out) const {
    out = prob_.system.drift;
    for (std::size_t j = 0; j < n_ctrl_; ++j) {
        linalg::add_scaled(out, amps[j], prob_.system.ctrls[j]);
    }
    if (open_) {
        out *= dt_;
    } else {
        out *= -kI * dt_;
    }
}

Mat ControlProblem::slot_exponent(const std::vector<double>& amps) const {
    Mat out;
    slot_exponent_into(amps.data(), out);
    return out;
}

Mat ControlProblem::evolution(const ControlAmplitudes& amps) const {
    auto lease = scratch_pool_.acquire();
    EvalScratch& sc = *lease;
    Mat total = Mat::identity(prob_.system.drift.rows());
    for (std::size_t k = 0; k < n_ts_; ++k) {
        slot_exponent_into(amps[k].data(), sc.gen);
        linalg::expm_into(sc.gen, sc.prop, sc.ws, method_);
        linalg::gemm_into(sc.prop, total, sc.tmp);
        std::swap(total, sc.tmp);
    }
    return total;
}

double ControlProblem::fid_err_of(const Mat& evo) const {
    switch (prob_.fidelity) {
        case FidelityType::kPsu: {
            const cplx g = linalg::hs_inner(overlap_target_, evo);
            return 1.0 - std::norm(g) / (norm_dim_ * norm_dim_);
        }
        case FidelityType::kSu: {
            const cplx g = linalg::hs_inner(overlap_target_, evo);
            return 1.0 - g.real() / norm_dim_;
        }
        case FidelityType::kTraceDiff: {
            // ||target - evo||_F^2, summed in place (no temporary).
            const auto& t = prob_.target.data();
            const auto& e = evo.data();
            double fro2 = 0.0;
            for (std::size_t i = 0; i < e.size(); ++i) fro2 += std::norm(t[i] - e[i]);
            return 0.5 * fro2 / static_cast<double>(evo.rows());
        }
    }
    return 1.0;
}

/// Zero-alloc contract: per-slot propagators, partial products and all
/// expm factors live in evaluator-owned storage (the per-slot expm
/// workspaces, plus scratch leased per task from the workspace pool) that
/// is reused across the thousands of L-BFGS-B evaluations; after the first
/// call at a given problem shape the hot loop performs no heap allocation.
/// Results are bit-identical for any pool size: every slot's computation
/// is independent, reads only its own workspace and writes to disjoint
/// storage.
///
/// Gradient (adjoint direction): with the co-state bwd_k = C P_{N-1} ...
/// P_{k+1} (C the cost-side matrix, bwd_{N-1} = C) and R_k = fwd_{k-1}
/// bwd_k, the cost derivative is Tr(R_k L(A_k, E_j)) = Tr(L(A_k, R_k) E_j),
/// so ONE Frechet derivative per slot, taken in the direction R_k, gives
/// every control's gradient entry as an O(N^2) trace.  Folding C into the
/// backward recursion (run once the fidelity is known) costs no gemm more
/// than the plain products P_{N-1} ... P_{k+1} and saves the per-slot C
/// product.
double ControlProblem::objective(const std::vector<double>& x,
                                 std::vector<double>& grad) const {
    obs::Span span("grape.objective");
    props_.resize(n_ts_);
    slot_ws_.resize(n_ts_);

    // Factor every slot exponent once: the propagator goes to props_[k],
    // the factors stay in slot_ws_[k] for the adjoint pass below.
    runtime::TaskPool::global().parallel_for(0, n_ts_, [&](std::size_t k) {
        auto lease = scratch_pool_.acquire();
        EvalScratch& sc = *lease;
        slot_exponent_into(&x[k * n_ctrl_], sc.gen);
        linalg::expm_prepare(sc.gen, props_[k], slot_ws_[k], method_);
    });

    // Forward partial products fwd[k] = P_k ... P_0, into reused storage.
    fwd_.resize(n_ts_);
    fwd_[0] = props_[0];
    for (std::size_t k = 1; k < n_ts_; ++k) linalg::gemm_into(props_[k], fwd_[k - 1], fwd_[k]);

    const Mat& evo = fwd_.back();
    const double err = fid_err_of(evo);
    const std::size_t dim = prob_.system.drift.rows();

    // Co-states bwd[k] = C P_{N-1} ... P_{k+1}, seeded with the cost-side
    // matrix C (bwd[N-1] = C): d(val)/du = Tr(bwd_k dP_k fwd_{k-1}).
    bwd_.resize(n_ts_);
    Mat& c_adj = bwd_[n_ts_ - 1];
    cplx g_overlap{0.0, 0.0};
    if (prob_.fidelity == FidelityType::kTraceDiff) {
        c_adj.resize(dim, dim);
        for (std::size_t i = 0; i < dim; ++i)
            for (std::size_t j = 0; j < dim; ++j)
                c_adj(j, i) = std::conj(prob_.target(i, j) - evo(i, j));
    } else {
        g_overlap = linalg::hs_inner(overlap_target_, evo);
        c_adj.resize(overlap_target_.cols(), overlap_target_.rows());
        for (std::size_t i = 0; i < overlap_target_.rows(); ++i)
            for (std::size_t j = 0; j < overlap_target_.cols(); ++j)
                c_adj(j, i) = std::conj(overlap_target_(i, j));
    }
    for (std::size_t k = n_ts_ - 1; k-- > 0;) {
        linalg::gemm_into(bwd_[k + 1], props_[k + 1], bwd_[k]);
    }

    grad.assign(n_params(), 0.0);
    runtime::TaskPool::global().parallel_for(0, n_ts_, [&](std::size_t k) {
        auto lease = scratch_pool_.acquire();
        EvalScratch& sc = *lease;
        // R_k = fwd_{k-1} * bwd_k  (so Tr(bwd_k dP_k fwd_{k-1}) = Tr(R_k dP_k)).
        const Mat* r = &bwd_[k];
        if (k > 0) {
            linalg::gemm_into(fwd_[k - 1], bwd_[k], sc.prop);
            r = &sc.prop;
        }
        // L(A_k, R_k) into sc.gen (free once the slot is prepared).
        linalg::expm_direction(slot_ws_[k], *r, sc.gen);
        for (std::size_t j = 0; j < n_ctrl_; ++j) {
            const cplx dg = linalg::trace_of_product(sc.gen, exp_dirs_[j]);
            double derr = 0.0;
            switch (prob_.fidelity) {
                case FidelityType::kPsu:
                    derr = -2.0 * (std::conj(g_overlap) * dg).real() /
                           (norm_dim_ * norm_dim_);
                    break;
                case FidelityType::kSu:
                    derr = -dg.real() / norm_dim_;
                    break;
                case FidelityType::kTraceDiff:
                    derr = -dg.real() / static_cast<double>(dim);
                    break;
            }
            grad[k * n_ctrl_ + j] = derr;
        }
    });
    double total = err;
    if (prob_.energy_penalty > 0.0) {
        const double w = prob_.energy_penalty / static_cast<double>(n_params());
        double penalty = 0.0;
        for (std::size_t i = 0; i < n_params(); ++i) {
            penalty += w * x[i] * x[i];
            grad[i] += 2.0 * w * x[i];
        }
        total = err + penalty;
    }
    contracts::check_finite(total, "GRAPE objective: cost");
    contracts::check_all_finite(grad, "GRAPE objective: gradient");
    return total;
}

}  // namespace qoc::control
