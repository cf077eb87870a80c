/// \file expm.hpp
/// \brief Matrix exponential (Higham Pade 13 scaling-and-squaring), the Van
///        Loan augmented-block directional derivative, and the batched
///        multi-direction Frechet engine used by the GRAPE hot loop.

#pragma once

#include <utility>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace qoc::linalg {

/// Matrix exponential `e^A` for a general complex square matrix, via
/// scaling-and-squaring with Pade approximants of order 3/5/7/9/13
/// (Higham 2005).
Mat expm(const Mat& a);

/// Frechet derivative `L(A, E) = d/ds e^{A + sE} |_{s=0}` computed with the
/// Van Loan augmented block
///   expm([[A, E], [0, A]]) = [[e^A, L(A,E)], [0, e^A]].
/// Returns `{e^A, L(A, E)}`.  Valid for any (also non-Hermitian) generator.
/// The augmented block is 2N x 2N, so one call costs ~8x an N x N expm; the
/// multi-direction engine below exists because GRAPE needs L against every
/// control direction of the *same* A.  Kept as the independent reference
/// implementation the engine is tested against.
std::pair<Mat, Mat> expm_frechet(const Mat& a, const Mat& e);

/// Unitary propagator `exp(-i H t)` of a Hermitian `H` via its spectrum.
/// More accurate than generic expm for strongly scaled Hamiltonians and
/// reuses a cached eigendecomposition when stepping many times.
Mat expm_hermitian(const Mat& h, double t);

// --- batched propagator-gradient engine --------------------------------------

/// Algorithm selector for the batched engine.
enum class ExpmMethod {
    kAuto,      ///< kSpectral when A is anti-Hermitian (closed-system GRAPE
                ///  slot exponents `-i dt H`), kPade otherwise.
    kPade,      ///< shared-Pade scaling-and-squaring (any generator)
    kSpectral,  ///< Daleckii-Krein divided differences through eig_hermitian;
                ///  requires an anti-Hermitian `A = -i S`, S Hermitian
};

/// Reusable scratch for `expm_into` / `expm_frechet_multi`.  All buffers are
/// implementation detail: contents are unspecified between calls, and the
/// only guarantee is that repeated calls at the same matrix size perform no
/// heap allocation on either path (the spectral path runs the no-alloc
/// `eig_hermitian_into`).  One workspace must not be shared between
/// threads; the GRAPE evaluator keeps one per OpenMP thread.
class ExpmWorkspace {
public:
    ExpmWorkspace() = default;

    // shared Pade intermediates (one set per A, reused across directions)
    Mat as;                 ///< scaled generator A / 2^s
    std::vector<Mat> pows;  ///< pows[k] = (A/2^s)^{2k}, k >= 1
    Mat usum;               ///< odd-coefficient polynomial (orders 3..9)
    Mat u, v;               ///< Pade numerator/denominator halves
    Mat w1, z1, w;          ///< Higham order-13 factored polynomials
    Mat r;                  ///< Pade approximant, then its repeated squares
    Lu fact;                ///< LU of (V - U), shared across directions
    // per-direction scratch
    Mat es, m2, m4, m6, mcur, mprev, lw1, lw, lusum, lu_m, lv_m, rhs;
    Mat t1, t2;
    // spectral-path scratch
    Mat vt, g, evec, ework;
    std::vector<double> evals;
    std::vector<cplx> phases;
};

/// `out = e^A` through the workspace engine: allocation-free on shape reuse
/// and, with kAuto/kSpectral on anti-Hermitian input, via the exact spectral
/// formula instead of Pade.  Used by the PWC propagator builders and Krotov,
/// which exponentiate thousands of same-size slot generators.
void expm_into(const Mat& a, Mat& out, ExpmWorkspace& ws,
               ExpmMethod method = ExpmMethod::kAuto);

/// Computes `e^A` and the Frechet derivatives `L(A, E_j)` for all `n_dirs`
/// directions at once.
///
/// kPade path: one set of Pade intermediates (A^2, A^4, A^6, the factored
/// polynomials and one LU of V - U) is built for A and reused for every
/// direction, Al-Mohy-Higham style; per direction only the derivative
/// polynomials, one back-substitution and the squaring-phase products
/// remain.  Cost per direction is ~N^3 gemms instead of the (2N)^3 ~ 8x
/// augmented-block expm that `expm_frechet` pays.
///
/// kSpectral path (anti-Hermitian A = -i S): one Jacobi eigendecomposition
/// of S, then per direction the Daleckii-Krein divided-difference formula
///   L(A, E) = V [ (V^dag E V) o Phi ] V^dag,
///   Phi_kl = e^{-i(lam_k+lam_l)/2} * sinc((lam_k-lam_l)/2),
/// i.e. two gemm pairs and a Hadamard product per direction.
///
/// `frechet_out` must point at `n_dirs` writable matrices (resized in
/// place); `exp_out`/`frechet_out` must not alias `a`/`dirs`.  Every
/// direction must have the shape of `a`.  Results are deterministic for a
/// given input regardless of how calls are distributed over threads.
void expm_frechet_multi(const Mat& a, const Mat* dirs, std::size_t n_dirs,
                        Mat& exp_out, Mat* frechet_out, ExpmWorkspace& ws,
                        ExpmMethod method = ExpmMethod::kAuto);

/// Convenience overload with value-semantics results (tests, one-shot use).
std::pair<Mat, std::vector<Mat>> expm_frechet_multi(
    const Mat& a, const std::vector<Mat>& dirs,
    ExpmMethod method = ExpmMethod::kAuto);

}  // namespace qoc::linalg
