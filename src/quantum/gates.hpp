/// \file gates.hpp
/// \brief Standard quantum gates used as optimization targets and in the
///        Clifford constructions.

#pragma once

#include "linalg/matrix.hpp"

namespace qoc::quantum::gates {

using linalg::Mat;

Mat x();        ///< Pauli X (NOT, the paper's pi-pulse gate)
Mat y();
Mat z();
Mat h();        ///< Hadamard
Mat s();        ///< sqrt(Z)
Mat sx();       ///< sqrt(X), an IBM basis gate
Mat t();
Mat rx(double theta);
Mat rz(double theta);  ///< e^{-i theta Z / 2}; virtual on IBM hardware

Mat cx();       ///< CNOT, control = qubit 0 (most significant)
Mat cx_10();    ///< CNOT with control = qubit 1
Mat swap();
Mat zx90();     ///< e^{-i pi/4 Z(x)X}, the echoed cross-resonance primitive

}  // namespace qoc::quantum::gates
