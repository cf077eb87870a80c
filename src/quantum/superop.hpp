/// \file superop.hpp
/// \brief Liouvillian superoperators for the Lindblad master equation (the
///        paper's Eq. 1) under the column-stacking convention
///        `vec(A X B) = (B^T (x) A) vec(X)`.

#pragma once

#include <vector>

#include "linalg/matrix.hpp"

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

}  // namespace qoc::quantum
