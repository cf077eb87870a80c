/// \file operators.hpp
/// \brief Pauli matrices, ladder operators, Duffing-oscillator operators and
///        multi-qubit embedding helpers.

#pragma once

#include "linalg/matrix.hpp"

namespace qoc::quantum {

using linalg::cplx;
using linalg::Mat;

// --- Pauli matrices (2x2) ----------------------------------------------------
Mat sigma_x();
Mat sigma_y();
Mat sigma_z();
Mat sigma_plus();   ///< |1><0| raising operator (qubit convention |0>=ground)
Mat sigma_minus();  ///< |0><1| lowering operator

// --- d-level (transmon / Duffing) operators ----------------------------------

/// Annihilation operator `a` on a d-level truncated oscillator.
Mat annihilation(std::size_t dim);

/// Creation operator `a^dagger`.
Mat creation(std::size_t dim);

/// Number operator `a^dagger a`.
Mat number_op(std::size_t dim);

/// Duffing-oscillator drift Hamiltonian in the frame rotating at the drive
/// frequency:  H = delta * n + (alpha / 2) * n (n - 1)
/// where `delta` is the qubit-drive detuning and `alpha` the anharmonicity
/// (both angular frequencies).  For dim = 2 the anharmonic term vanishes and
/// this reduces to the Pauli model `delta * |1><1|`.
Mat duffing_drift(std::size_t dim, double delta, double anharmonicity);

/// Charge-drive operator `a + a^dagger` (the "X" control of a transmon;
/// matrix elements carry the sqrt(n) ladder factors that make DRAG matter).
Mat drive_x(std::size_t dim);

/// Quadrature-drive operator `i(a^dagger - a)` (the "Y" control).
Mat drive_y(std::size_t dim);

// --- multi-qubit helpers ------------------------------------------------------

/// Embeds `op` acting on qubit `target` of an n-qubit register (qubit 0 is
/// the most significant factor, matching the order used for kets |q0 q1 ...>).
Mat op_on_qubit(const Mat& op, std::size_t target, std::size_t n_qubits);

/// Tensor product of per-qubit operators, qubit 0 first.
Mat tensor(const std::vector<Mat>& ops);

/// Projector onto the two-level computational subspace of a d-level system
/// (d >= 2), as a d x 2 isometry P with P^dagger P = I_2.
Mat qubit_isometry(std::size_t dim);

/// Embeds a 2x2 qubit operator into the d-level space (zero outside the
/// computational subspace).
Mat embed_qubit_op(const Mat& op2, std::size_t dim);

}  // namespace qoc::quantum
