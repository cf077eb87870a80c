/// \file superop.hpp
/// \brief Liouvillian superoperators for the Lindblad master equation (the
///        paper's Eq. 1) under the column-stacking convention
///        `vec(A X B) = (B^T (x) A) vec(X)`.

#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "quantum/superop_kron.hpp"
#include "quantum/superop_structured.hpp"

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

/// Allocation-free superoperator action on an already-vectorized state:
/// `out = superop * vec_rho` where `vec_rho` is a d^2 x 1 column vector.
/// `out` must not alias `vec_rho`; it is resized in place (no allocation
/// once it has seen the shape).  The action runs through the CSR or dense
/// SIMD kernel the wrapped operator selected at construction
/// (`StructuredSuperOp::kind`).
void apply_superop_into(const StructuredSuperOp& superop, const Mat& vec_rho, Mat& out);

/// Kronecker-factored overload: O(k d^3) two-sided updates on the reshaped
/// d x d state, never materializing the d^2 x d^2 matrix.  `scratch` is
/// caller-owned d x d workspace (see KronSuperOp::apply_vec_into).
void apply_superop_into(const KronSuperOp& superop, const Mat& vec_rho, Mat& out, Mat& scratch);

/// True when the superoperator preserves trace: vec(I)^T S = vec(I)^T.
bool is_trace_preserving(const Mat& superop, double tol = 1e-9);

/// Depolarizing channel on dimension d with error probability p:
///   rho -> (1 - p) rho + p I/d.
Mat depolarizing_superop(std::size_t dim, double p);

/// Amplitude-damping channel (qubit) with decay probability gamma.
Mat amplitude_damping_superop(double gamma);

/// Pure-dephasing channel (qubit) with dephasing probability lambda
/// (off-diagonals multiplied by 1 - lambda).
Mat phase_damping_superop(double lambda);

}  // namespace qoc::quantum
