/// \file propagators.hpp
/// \brief Test oracles for matrix exponentials, their Frechet derivatives
///        and piecewise-constant (PWC) unitary propagators.
///
/// The library runs every slot exponential through one shared-Pade engine
/// (`linalg::pade_prepare` / `pade_direction`).  These references compute
/// the same quantities another way -- Van Loan's augmented block, or a
/// Hermitian eigendecomposition -- so a test can check the engine against
/// something that does not share its algorithm.

#pragma once

#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace qoc::oracle {

using linalg::Mat;

/// Frechet derivative `L(A, E) = d/ds e^{A + sE} |_{s=0}` from the Van Loan
/// augmented block
///   expm([[A, E], [0, A]]) = [[e^A, L(A,E)], [0, e^A]].
/// Returns `{e^A, L(A, E)}`.  Valid for any (also non-Hermitian) generator;
/// one call costs ~8x an N x N expm.
std::pair<Mat, Mat> expm_frechet(const Mat& a, const Mat& e);

/// `{e^A, L(A, E)}` for the anti-Hermitian `A = -i H` (H Hermitian) from the
/// spectrum of H, with the Daleckii-Krein divided differences
///   L(A, E) = V [ (V^dag E V) o Phi ] V^dag,
///   Phi_kl = e^{-i(lam_k+lam_l)/2} * sinc((lam_k-lam_l)/2).
std::pair<Mat, Mat> expm_frechet_spectral(const Mat& h, const Mat& e);

/// Unitary propagator `exp(-i H t)` of a Hermitian `H` via its spectrum.
Mat expm_hermitian(const Mat& h, double t);

/// `f(A) = V diag(f(w)) V^dagger` for a Hermitian A through its spectrum.
Mat hermitian_function(const Mat& a, double (*f)(double));

/// Per-slot unitary propagators `P_k = exp(-i dt (H_0 + sum_j amps[k][j] H_j))`,
/// each through `expm_hermitian`.  Throws `std::invalid_argument` when a
/// slot's amplitude count differs from the number of controls.
std::vector<Mat> pwc_unitary_propagators(const Mat& drift, const std::vector<Mat>& ctrls,
                                         const std::vector<std::vector<double>>& amps,
                                         double dt);

/// Ordered product `P_N ... P_2 P_1` (time-ordered evolution).  Throws
/// `std::invalid_argument` on an empty chain.
Mat chain_product(const std::vector<Mat>& props);

}  // namespace qoc::oracle
