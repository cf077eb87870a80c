/// \file channels.hpp
/// \brief Test oracles: closed-form superoperators (column-stacking
///        convention, `vec(A X B) = (B^T (x) A) vec(X)`) of the textbook
///        noise channels, for checks of fidelity, tomography and RB code.

#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace qoc::oracle {

using linalg::Mat;

/// Depolarizing channel on dimension d with error probability p:
///   rho -> (1 - p) rho + p Tr(rho) I/d.
Mat depolarizing_superop(std::size_t dim, double p);

/// Amplitude-damping channel (qubit) with decay probability gamma.
Mat amplitude_damping_superop(double gamma);

/// Pure-dephasing channel (qubit) with dephasing probability lambda
/// (off-diagonals multiplied by sqrt(1 - lambda)).
Mat phase_damping_superop(double lambda);

}  // namespace qoc::oracle
