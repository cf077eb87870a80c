/// \file fidelity.hpp
/// \brief Average gate fidelities of simulated channels, the measure the
///        characterization code (tomography, IRB cross-checks, the design
///        tool) reports.
///
/// The optimizer's costs -- QuTiP's PSU and SU trace fidelities and the
/// TRACEDIFF superoperator distance -- are computed inside
/// `control::ControlProblem`; the independent references tests compare them
/// against live in `tests/oracles/`.

#pragma once

#include "linalg/matrix.hpp"

namespace qoc::quantum {

using linalg::cplx;
using linalg::Mat;

/// Average gate fidelity of a quantum channel (superoperator, column
/// stacking) against a target unitary:
///   F_pro = Tr(S_t^dagger S) / d^2,  F_avg = (d F_pro + 1) / (d + 1).
double average_gate_fidelity_superop(const Mat& u_target, const Mat& superop);

/// Average gate fidelity of a d-level channel restricted to the 2-level
/// computational subspace: extracts the qubit block of the superoperator
/// (column-stacking convention) and compares against the 2x2 target.
/// Leakage out of the subspace reduces the fidelity; phases accumulated by
/// the leakage levels (e.g. anharmonic rotation of |2>) are ignored, as a
/// physical qubit-only experiment would.
double average_gate_fidelity_subspace(const Mat& u_target2, const Mat& superop,
                                      std::size_t levels);

}  // namespace qoc::quantum
