/// \file quantum.hpp
/// \brief Test oracles: the textbook gate and state fidelities (QuTiP's PSU,
///        SU and TRACEDIFF measures, Nielsen's average gate fidelity, pure
///        state overlap), density-matrix checks and the two-qubit gates the
///        library itself never targets.  Each is a direct formula with no
///        code shared with `control::ControlProblem`, which computes the
///        optimizer's costs on its own.

#pragma once

#include "linalg/matrix.hpp"

namespace qoc::oracle {

using linalg::Mat;

/// |<Tr(U_t^dagger U)>|^2 / d^2 — phase-invariant unitary gate fidelity.
double fidelity_psu(const Mat& u_target, const Mat& u);

/// Re[Tr(U_t^dagger U)] / d — phase-sensitive variant (QuTiP "SU").
double fidelity_su(const Mat& u_target, const Mat& u);

/// Fidelity of a unitary on an embedded qubit subspace: the d-level
/// propagator `u` is projected onto the computational subspace with the
/// isometry `p` (d x 2) before comparing with the 2x2 target.  Leakage
/// outside the subspace reduces the projected trace and hence the fidelity.
double fidelity_psu_subspace(const Mat& u_target2, const Mat& u, const Mat& p);

/// Trace-difference error between two superoperators (QuTiP TRACEDIFF):
///   err = ||E_t - E||_F^2 / (2 d^2)
/// where d^2 is the superoperator dimension.  Zero iff the maps agree.
double tracediff_error(const Mat& e_target, const Mat& e);

/// Average gate fidelity between two unitaries on dimension d (Nielsen):
///   F_avg = [ |Tr(U_t^dagger U)|^2 + d ] / [ d (d + 1) ].
double average_gate_fidelity(const Mat& u_target, const Mat& u);

/// State fidelity <psi| rho |psi> for a pure target.
double state_fidelity(const Mat& rho, const Mat& ket);

/// True when `rho` is a valid density matrix: Hermitian, unit trace,
/// positive semidefinite (eigenvalues >= -tol).
bool is_density_matrix(const Mat& rho, double tol = 1e-9);

/// Tr(rho^2).
double purity(const Mat& rho);

/// Controlled-Z on two qubits.
Mat cz();

/// iSWAP: swaps |01> and |10> with a phase i.
Mat iswap();

}  // namespace qoc::oracle
