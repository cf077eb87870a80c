/// \file expm.hpp
/// \brief Matrix exponential (Higham Pade 13 scaling-and-squaring), the Van
///        Loan augmented-block directional derivative, and the factor-once /
///        derive-per-direction Frechet engine used by the GRAPE hot loop.

#pragma once

#include <type_traits>
#include <utility>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/real_matrix.hpp"

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
/// factor-once engine below (`expm_prepare` + `expm_direction`) exists
/// because GRAPE needs L against many directions of the *same* A.  Kept as
/// the independent reference implementation the engine is tested against.
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

/// The shared-Pade factors of one A and the per-direction scratch, for the
/// complex `Mat` or the real `RMat`.  `pade_prepare` leaves the factors
/// here and every later `pade_direction` reads them until the next
/// prepare; all other buffers are scratch whose contents are unspecified
/// between calls.  Repeated calls at the same matrix size perform no heap
/// allocation.  One workspace must not be shared between threads.
template <class M>
struct PadeWorkspace {
    // the Pade order m and squarings s of the last prepare
    int order = 0;
    int squarings = 0;
    // shared Pade intermediates (one set per A, reused across directions)
    M as;                     ///< scaled generator A / 2^s
    std::vector<M> pows;      ///< pows[k] = (A/2^s)^{2k}, k >= 1
    M usum;                   ///< odd-coefficient polynomial (orders 3..9)
    M u, v;                   ///< Pade numerator/denominator halves
    M w1, z1, w;              ///< Higham order-13 factored polynomials
    /// LU of (V - U), shared across directions
    std::conditional_t<std::is_same_v<M, Mat>, Lu, RLu> fact;
    std::vector<M> ladder;    ///< ladder[j] = r^(2^j), j = 0..s, r the Pade approximant
    // per-direction scratch
    M es, m2, m4, m6, mcur, mprev, lw1, lw, lusum, lu_m, lv_m, rhs;
    M t1, t2;
};

/// Shared-Pade factorization of A (Higham 2005 order choice from
/// `||A||_1`): the scaled generator, its even powers, the factored
/// polynomials, one LU of V - U and the squaring ladder r^(2^j), all kept
/// in `ws`; writes `exp_out = e^A`.  `exp_out` must not alias `a`.  Throws
/// `std::invalid_argument` on a non-square A and `std::domain_error` on a
/// non-finite one.
/// Instantiated for `Mat` and `RMat`; both count `kExpmPade<m>`, their
/// products `kGemmCalls` and their factorization `kLuFactorizations`.
template <class M>
void pade_prepare(const M& a, M& exp_out, PadeWorkspace<M>& ws);

/// `out = L(A, E)` for the A of the last `pade_prepare` on `ws`: the
/// derivative polynomials, one back-substitution against the shared LU and
/// two products per squaring step.  `E` must not alias `out`.  Throws
/// `std::logic_error` if `ws` was never prepared and
/// `std::invalid_argument` unless `E` has the shape of A.
template <class M>
void pade_direction(PadeWorkspace<M>& ws, const M& e, M& out);

extern template void pade_prepare<Mat>(const Mat&, Mat&, PadeWorkspace<Mat>&);
extern template void pade_prepare<RMat>(const RMat&, RMat&, PadeWorkspace<RMat>&);
extern template void pade_direction<Mat>(PadeWorkspace<Mat>&, const Mat&, Mat&);
extern template void pade_direction<RMat>(PadeWorkspace<RMat>&, const RMat&, RMat&);

/// Reusable scratch for `expm_into` / `expm_prepare` / `expm_direction`:
/// the complex Pade workspace plus the spectral path's factors.
/// `expm_prepare` leaves the factors of its A here (the Pade intermediates
/// and squaring ladder, or the eigenbasis), and every later
/// `expm_direction` reads them until the next prepare.  Repeated calls at
/// the same matrix size perform no heap allocation on either path (the
/// spectral path runs the no-alloc `eig_hermitian_into`).  One workspace
/// must not be shared between threads.
class ExpmWorkspace : public PadeWorkspace<Mat> {
public:
    ExpmWorkspace() = default;

    // what the last expm_prepare factored: kPade or kSpectral (kAuto until
    // the first prepare)
    ExpmMethod prepared = ExpmMethod::kAuto;
    // spectral-path factors (eigenvectors, their adjoint, eigenvalues,
    // phases e^{-i lam}) and scratch
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

/// Factors A once into `ws` and writes `exp_out = e^A`; `expm_direction`
/// then takes derivatives of this A in any number of directions.
///
/// kPade path: one set of Pade intermediates (A^2, A^4, A^6, the factored
/// polynomials, one LU of V - U and the squaring ladder r^(2^j)) is built
/// for A and reused for every direction, Al-Mohy-Higham style.
///
/// kSpectral path (anti-Hermitian A = -i S): one Jacobi eigendecomposition
/// of S; the eigenvectors, eigenvalues and phases stay in `ws`.
///
/// `exp_out` must not alias `a`.
void expm_prepare(const Mat& a, Mat& exp_out, ExpmWorkspace& ws,
                  ExpmMethod method = ExpmMethod::kAuto);

/// `out = L(A, E)` for the A of the last `expm_prepare` on `ws`, from the
/// kept factors (which it does not modify).
///
/// kPade: the derivative polynomials, one back-substitution against the
/// shared LU and two products per squaring step -- ~N^3 gemms instead of
/// the (2N)^3 ~ 8x augmented-block expm that `expm_frechet` pays.
///
/// kSpectral: the Daleckii-Krein divided-difference formula
///   L(A, E) = V [ (V^dag E V) o Phi ] V^dag,
///   Phi_kl = e^{-i(lam_k+lam_l)/2} * sinc((lam_k-lam_l)/2),
/// i.e. two gemm pairs and a Hadamard product.
///
/// Both are the exact derivative of an analytic function of A (the Pade
/// approximant with its squarings, or the exponential itself), so
///   Tr(R L(A, E)) = Tr(L(A, R) E)
/// for any R, E.  GRAPE uses this to get every control's gradient from ONE
/// direction per slot.  `E` must have the shape of A and not alias `out`.
void expm_direction(ExpmWorkspace& ws, const Mat& e, Mat& out);

}  // namespace qoc::linalg
