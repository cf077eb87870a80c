/// \file superop.hpp
/// \brief Liouvillian superoperators for the Lindblad master equation (the
///        paper's Eq. 1) under the column-stacking convention
///        `vec(A X B) = (B^T (x) A) vec(X)`.

#pragma once

#include <string_view>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/real_matrix.hpp"

namespace qoc::quantum {

using linalg::Mat;

/// Superoperator of the Hamiltonian commutator: L_H vec(rho) = vec(-i [H, rho]).
Mat liouvillian_hamiltonian(const Mat& h);

/// Superoperator of a single Lindblad dissipator:
///   D(C) rho = C rho C^dagger - 1/2 {C^dagger C, rho}.
Mat lindblad_dissipator(const Mat& c);

/// Full Liouvillian `-i[H, .] + sum_k D(C_k)`.
Mat liouvillian(const Mat& h, const std::vector<Mat>& collapse_ops);

/// Superoperator of unitary conjugation: S vec(rho) = vec(U rho U^dagger).
Mat unitary_superop(const Mat& u);

/// Applies a superoperator to a density matrix (vectorize, multiply, unvec).
Mat apply_superop(const Mat& superop, const Mat& rho);

/// True when the superoperator preserves trace: vec(I)^T S = vec(I)^T.
bool is_trace_preserving(const Mat& superop, double tol = 1e-9);

/// The orthonormal Hermitian basis of d x d operators,
///   {E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2}   (i < j),
/// as the columns of the unitary d^2 x d^2 matrix V (column-stacking vec:
/// column i + j d is vec(E_ii) on the diagonal, vec((E_ij + E_ji)/sqrt2)
/// for i < j and vec(i(E_ij - E_ji)/sqrt2) for i > j).  A superoperator X
/// that maps Hermitian operators to Hermitian operators has real
/// coordinates V^dag X V there: every Lindbladian, dissipator and unitary
/// channel.
Mat hermitian_basis(std::size_t d);

/// V^dag X V as a real matrix, for V = `hermitian_basis(d)` and a d^2 x d^2
/// superoperator X.  Throws `std::invalid_argument` with the message
/// "<who>: non-finite <what>" on a non-finite coordinate and
/// "<who>: <what> does not preserve Hermiticity" when an imaginary part
/// exceeds roundoff (1e-12 relative to ||X||_max).
linalg::RMat to_hermitian_basis(const Mat& basis, const Mat& x, std::string_view who,
                                std::string_view what);

/// V R V^dag: a real-basis superoperator back in the standard basis.
Mat from_hermitian_basis(const Mat& basis, const linalg::RMat& r);

}  // namespace qoc::quantum
