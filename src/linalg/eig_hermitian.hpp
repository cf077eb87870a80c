/// \file eig_hermitian.hpp
/// \brief Eigendecomposition of complex Hermitian matrices (cyclic Jacobi).
///
/// Sizes in this library are tiny (<= ~162), so the classic cyclic Jacobi
/// scheme with complex rotations is both simple and accurate: it converges
/// quadratically and produces orthonormal eigenvectors to machine precision.

#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace qoc::linalg {

/// Result of a Hermitian eigendecomposition `A = V diag(w) V^dagger`.
struct EigH {
    std::vector<double> eigenvalues;  ///< ascending
    Mat eigenvectors;                 ///< columns are eigenvectors, unitary
};

/// Diagonalizes a Hermitian matrix.  Throws `std::invalid_argument` when the
/// input is not square or not Hermitian within `herm_tol`.
EigH eig_hermitian(const Mat& a, double herm_tol = 1e-9);

}  // namespace qoc::linalg
