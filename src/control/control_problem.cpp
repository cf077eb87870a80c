#include "control/control_problem.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "contracts/matrix_checks.hpp"
#include "obs/obs.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::control {

namespace {

using linalg::cplx;
using linalg::RMat;
constexpr cplx kI{0.0, 1.0};

/// Largest |Im| of V^dag X V allowed, relative to ||X||_max: roundoff of the
/// four-term basis sums, far below any physical non-Hermiticity.
constexpr double kRealBasisTol = 1e-12;

/// V for d x d operators under column stacking (vec index i + j d): column
/// i + j d is vec(E_ii) on the diagonal, vec((E_ij + E_ji)/sqrt2) for
/// i < j and vec(i(E_ij - E_ji)/sqrt2) for i > j.  Orthonormal, so V is
/// unitary.
Mat hermitian_basis(std::size_t d) {
    const std::size_t n = d * d;
    const double h = 1.0 / std::sqrt(2.0);
    Mat v(n, n);
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            const std::size_t col = i + j * d;
            const std::size_t ij = i + j * d, ji = j + i * d;
            if (i == j) {
                v(ij, col) = 1.0;
            } else if (i < j) {
                v(ij, col) = h;
                v(ji, col) = h;
            } else {
                v(ij, col) = cplx{0.0, h};
                v(ji, col) = cplx{0.0, -h};
            }
        }
    }
    return v;
}

}  // namespace

ControlProblem::ControlProblem(const GrapeProblem& problem)
    : prob_(problem), open_(is_open(problem)) {
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

    if (open_) {
        to_open_real_basis();
    } else {
        // Pre-scale control generators into exponent directions.
        for (const Mat& c : prob_.system.ctrls) exp_dirs_.push_back((-kI * dt_) * c);
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
}

void ControlProblem::to_open_real_basis() {
    const Mat& drift = prob_.system.drift;
    const std::size_t dim = drift.rows();
    const auto d = static_cast<std::size_t>(std::llround(std::sqrt(static_cast<double>(dim))));
    if (dim == 0 || !drift.is_square() || d * d != dim) {
        throw std::invalid_argument(
            "GRAPE (open): superoperator dimension must be a perfect square d^2");
    }
    basis_ = hermitian_basis(d);
    rdrift_ = to_real_basis(drift, "drift");
    for (const Mat& c : prob_.system.ctrls) {
        if (c.rows() != dim || c.cols() != dim) {
            throw std::invalid_argument("GRAPE (open): control shape mismatch");
        }
        rctrls_.push_back(to_real_basis(c, "control"));
        rexp_dirs_.push_back(rctrls_.back());
        rexp_dirs_.back() *= dt_;
    }
    rtarget_ = to_real_basis(prob_.target, "target");
}

RMat ControlProblem::to_real_basis(const Mat& x, const char* what) const {
    const Mat y = basis_.adjoint() * x * basis_;
    const double tol = kRealBasisTol * x.max_abs();
    RMat out(y.rows(), y.cols());
    for (std::size_t i = 0; i < y.rows(); ++i) {
        for (std::size_t j = 0; j < y.cols(); ++j) {
            const cplx v = y(i, j);
            if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
                throw std::invalid_argument(std::string("GRAPE (open): non-finite ") + what);
            }
            if (std::abs(v.imag()) > tol) {
                throw std::invalid_argument(std::string("GRAPE (open): ") + what +
                                            " does not preserve Hermiticity");
            }
            out(i, j) = v.real();
        }
    }
    return out;
}

ControlAmplitudes ControlProblem::unflatten(const std::vector<double>& x) const {
    if (x.size() != n_params()) {
        throw std::invalid_argument("ControlProblem::unflatten: parameter count mismatch");
    }
    ControlAmplitudes amps(n_ts_, std::vector<double>(n_ctrl_));
    for (std::size_t k = 0; k < n_ts_; ++k)
        for (std::size_t j = 0; j < n_ctrl_; ++j) amps[k][j] = x[k * n_ctrl_ + j];
    return amps;
}

void ControlProblem::check_amps(const ControlAmplitudes& amps, const char* who) const {
    bool ok = amps.size() == n_ts_;
    for (std::size_t k = 0; ok && k < n_ts_; ++k) ok = amps[k].size() == n_ctrl_;
    if (!ok) {
        throw std::invalid_argument(std::string("ControlProblem::") + who +
                                    ": amplitude table is not n_ts x n_ctrl");
    }
}

std::vector<double> ControlProblem::flatten(const ControlAmplitudes& amps) const {
    check_amps(amps, "flatten");
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
    if (amps.size() != n_ctrl_) {
        throw std::invalid_argument("ControlProblem::slot_exponent: control count mismatch");
    }
    Mat out;
    slot_exponent_into(amps.data(), out);
    return out;
}

void ControlProblem::slot_exponent_into(const double* amps, RMat& out) const {
    out = rdrift_;
    for (std::size_t j = 0; j < n_ctrl_; ++j) linalg::add_scaled(out, amps[j], rctrls_[j]);
    out *= dt_;
}

template <class M>
ControlProblem::Engine<M>& ControlProblem::engine() const {
    if constexpr (std::is_same_v<M, RMat>) {
        return open_engine_;
    } else {
        return closed_engine_;
    }
}

// Shared-Pade for both systems.  Closed-system slot exponents are
// anti-Hermitian, but a Daleckii-Krein spectral path through a Jacobi
// eigensolve measured 1.2-2.7x slower than Pade at N = 3, and 4-7x at N = 9.
template <class M>
M ControlProblem::propagate(const ControlAmplitudes& amps) const {
    auto lease = engine<M>().scratch.acquire();
    auto& sc = *lease;
    M total = M::identity(prob_.system.drift.rows());
    for (std::size_t k = 0; k < n_ts_; ++k) {
        slot_exponent_into(amps[k].data(), sc.gen);
        linalg::pade_prepare(sc.gen, sc.prop, sc.ws);
        linalg::gemm_into(sc.prop, total, sc.tmp);
        std::swap(total, sc.tmp);
    }
    return total;
}

Mat ControlProblem::evolution(const ControlAmplitudes& amps) const {
    check_amps(amps, "evolution");
    if (!open_) return propagate<Mat>(amps);
    // Back to the standard basis: V E V^dag.
    const RMat e = propagate<RMat>(amps);
    Mat ec(e.rows(), e.cols());
    for (std::size_t i = 0; i < e.size(); ++i) ec.data()[i] = e.data()[i];
    return basis_ * ec * basis_.adjoint();
}

double ControlProblem::fid_err(const ControlAmplitudes& amps) const {
    check_amps(amps, "fid_err");
    return open_ ? trace_diff_cost(propagate<RMat>(amps)) : fid_err_of(propagate<Mat>(amps));
}

double ControlProblem::trace_diff_cost(const RMat& evo) const {
    const auto& t = rtarget_.data();
    const auto& e = evo.data();
    double fro2 = 0.0;
    for (std::size_t i = 0; i < e.size(); ++i) fro2 += (t[i] - e[i]) * (t[i] - e[i]);
    return 0.5 * fro2 / static_cast<double>(evo.rows());
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
/// Pade factors live in evaluator-owned storage (the per-slot workspaces,
/// plus scratch leased per task from the workspace pool) that is reused
/// across the thousands of L-BFGS-B evaluations; after the first call at a
/// given problem shape the hot loop performs no heap allocation.  Results
/// are bit-identical for any pool size: every slot's computation is
/// independent, reads only its own workspace and writes to disjoint
/// storage.
///
/// Gradient (adjoint direction): with the co-state bwd_k = C P_{N-1} ...
/// P_{k+1} (C the cost-side matrix, bwd_{N-1} = C) and R_k = fwd_{k-1}
/// bwd_k, the cost derivative is Tr(R_k L(A_k, E_j)) = Tr(L(A_k, R_k) E_j),
/// so ONE Frechet derivative per slot, taken in the direction R_k, gives
/// every control's gradient entry as an O(N^2) trace.  Folding C into the
/// backward recursion (run once the fidelity is known) costs no gemm more
/// than the plain products P_{N-1} ... P_{k+1} and saves the per-slot C
/// product.  Open systems run all of it on real matrices, where C is the
/// transpose (not the adjoint) of T - E.
template <class M>
double ControlProblem::cost_and_gradient(const std::vector<double>& x,
                                         std::vector<double>& grad) const {
    constexpr bool kOpen = std::is_same_v<M, RMat>;
    Engine<M>& eng = engine<M>();
    eng.props.resize(n_ts_);
    eng.slot_ws.resize(n_ts_);

    // Factor every slot exponent once: the propagator goes to props[k],
    // the factors stay in slot_ws[k] for the adjoint pass below.
    runtime::TaskPool::global().parallel_for(0, n_ts_, [&](std::size_t k) {
        auto lease = eng.scratch.acquire();
        slot_exponent_into(&x[k * n_ctrl_], lease->gen);
        linalg::pade_prepare(lease->gen, eng.props[k], eng.slot_ws[k]);
    });

    // Forward partial products fwd[k] = P_k ... P_0, into reused storage.
    eng.fwd.resize(n_ts_);
    eng.fwd[0] = eng.props[0];
    for (std::size_t k = 1; k < n_ts_; ++k) {
        linalg::gemm_into(eng.props[k], eng.fwd[k - 1], eng.fwd[k]);
    }
    const M& evo = eng.fwd.back();
    const std::size_t dim = evo.rows();

    // Co-states bwd[k] = C P_{N-1} ... P_{k+1}, seeded with the cost-side
    // matrix C (bwd[N-1] = C): d(val)/du = Tr(bwd_k dP_k fwd_{k-1}).
    eng.bwd.resize(n_ts_);
    M& c_adj = eng.bwd[n_ts_ - 1];
    double err = 0.0;
    cplx g_overlap{0.0, 0.0};
    if constexpr (kOpen) {
        err = trace_diff_cost(evo);
        c_adj.resize(dim, dim);
        for (std::size_t i = 0; i < dim; ++i)
            for (std::size_t j = 0; j < dim; ++j) c_adj(j, i) = rtarget_(i, j) - evo(i, j);
    } else {
        err = fid_err_of(evo);
        g_overlap = linalg::hs_inner(overlap_target_, evo);
        c_adj.resize(overlap_target_.cols(), overlap_target_.rows());
        for (std::size_t i = 0; i < overlap_target_.rows(); ++i)
            for (std::size_t j = 0; j < overlap_target_.cols(); ++j)
                c_adj(j, i) = std::conj(overlap_target_(i, j));
    }
    for (std::size_t k = n_ts_ - 1; k-- > 0;) {
        linalg::gemm_into(eng.bwd[k + 1], eng.props[k + 1], eng.bwd[k]);
    }

    grad.assign(n_params(), 0.0);
    runtime::TaskPool::global().parallel_for(0, n_ts_, [&](std::size_t k) {
        auto lease = eng.scratch.acquire();
        auto& sc = *lease;
        // R_k = fwd_{k-1} * bwd_k  (so Tr(bwd_k dP_k fwd_{k-1}) = Tr(R_k dP_k)).
        const M* r = &eng.bwd[k];
        if (k > 0) {
            linalg::gemm_into(eng.fwd[k - 1], eng.bwd[k], sc.prop);
            r = &sc.prop;
        }
        // L(A_k, R_k) into sc.gen (free once the slot is prepared).
        linalg::pade_direction(eng.slot_ws[k], *r, sc.gen);
        for (std::size_t j = 0; j < n_ctrl_; ++j) {
            double derr = 0.0;
            if constexpr (kOpen) {
                derr = -linalg::trace_of_product(sc.gen, rexp_dirs_[j]) /
                       static_cast<double>(dim);
            } else {
                const cplx dg = linalg::trace_of_product(sc.gen, exp_dirs_[j]);
                if (prob_.fidelity == FidelityType::kPsu) {
                    derr = -2.0 * (std::conj(g_overlap) * dg).real() / (norm_dim_ * norm_dim_);
                } else {
                    derr = -dg.real() / norm_dim_;
                }
            }
            grad[k * n_ctrl_ + j] = derr;
        }
    });
    return err;
}

double ControlProblem::objective(const std::vector<double>& x,
                                 std::vector<double>& grad) const {
    if (x.size() != n_params()) {
        throw std::invalid_argument("ControlProblem::objective: parameter count mismatch");
    }
    obs::Span span("grape.objective");
    const double err = open_ ? cost_and_gradient<RMat>(x, grad) : cost_and_gradient<Mat>(x, grad);
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
