/// \file states.hpp
/// \brief Kets, density matrices and measurement-related helpers.

#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace qoc::quantum {

using linalg::cplx;
using linalg::Mat;

/// Computational basis ket |k> of dimension `dim`, as a column vector.
Mat basis_ket(std::size_t dim, std::size_t k);

/// Density matrix |psi><psi| of a (normalized) ket.
Mat ket_to_dm(const Mat& ket);

/// Multi-qubit basis ket from bit string, qubit 0 first (|q0 q1 ...>).
Mat basis_ket_bits(const std::vector<int>& bits);

/// Diagonal of rho (basis-state populations), clipped to [0, 1].
std::vector<double> populations(const Mat& rho);

/// Bloch vector (x, y, z) of a single-qubit density matrix.
struct BlochVector {
    double x, y, z;
};
BlochVector bloch_vector(const Mat& rho);

/// Partial trace over subsystem `which` (0 or 1) of a bipartite state on
/// dims (d0, d1).  Returns the reduced density matrix of the other part.
Mat partial_trace(const Mat& rho, std::size_t d0, std::size_t d1, std::size_t which);

}  // namespace qoc::quantum
