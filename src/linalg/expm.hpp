/// \file expm.hpp
/// \brief Matrix exponential (Higham Pade 13 scaling-and-squaring) and the
///        factor-once / derive-per-direction Pade Frechet engine that every
///        slot propagator (GRAPE, Krotov, the pulse executor) runs through.

#pragma once

#include <type_traits>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/real_matrix.hpp"

namespace qoc::linalg {

/// Matrix exponential `e^A` for a general complex square matrix, via
/// scaling-and-squaring with Pade approximants of order 3/5/7/9/13
/// (Higham 2005).
Mat expm(const Mat& a);

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
/// two products per squaring step -- ~N^3 gemms instead of the (2N)^3
/// augmented-block expm of Van Loan's formula.  It is the exact derivative
/// of the Pade approximant with its squarings, an analytic function of A, so
///   Tr(R L(A, E)) = Tr(L(A, R) E)
/// for any R, E; GRAPE uses this to get every control's gradient from ONE
/// direction per slot.  `E` must not alias `out`.  Throws
/// `std::logic_error` if `ws` was never prepared and
/// `std::invalid_argument` unless `E` has the shape of A.
template <class M>
void pade_direction(PadeWorkspace<M>& ws, const M& e, M& out);

extern template void pade_prepare<Mat>(const Mat&, Mat&, PadeWorkspace<Mat>&);
extern template void pade_prepare<RMat>(const RMat&, RMat&, PadeWorkspace<RMat>&);
extern template void pade_direction<Mat>(PadeWorkspace<Mat>&, const Mat&, Mat&);
extern template void pade_direction<RMat>(PadeWorkspace<RMat>&, const RMat&, RMat&);

}  // namespace qoc::linalg
