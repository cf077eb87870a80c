/// \file integrator.hpp
/// \brief Test oracle: adaptive Runge-Kutta (Dormand-Prince 5(4)) for matrix
///        ODEs, and the Lindblad master equation (the paper's Eq. 1) on top
///        of it.
///
/// The propagators and GRAPE evaluators under test exponentiate generators
/// slot by slot through the SIMD gemm/LU kernels.  This oracle integrates
/// the same dynamics in time instead, and forms every matrix product with a
/// plain triple loop, so it shares no fast kernel with the code it checks.

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "linalg/matrix.hpp"

namespace qoc::oracle {

using linalg::Mat;

/// Right-hand side of dX/dt = f(t, X); X is a ket, density matrix or
/// vectorized state.
using MatrixRhs = std::function<Mat(double t, const Mat& x)>;

struct IntegratorOptions {
    double rtol = 1e-9;
    double atol = 1e-11;
    double initial_step = 1e-3;
    double min_step = 1e-12;
    std::size_t max_steps = 2'000'000;
};

struct IntegrationResult {
    Mat state;
    std::size_t steps_taken = 0;
    std::size_t steps_rejected = 0;
};

/// Integrates dX/dt = rhs(t, X) from (t0, x0) to t1 with adaptive
/// Dormand-Prince 5(4).  Throws `std::runtime_error` when the step size
/// underflows or the step budget is exhausted.
IntegrationResult integrate_rk45(const MatrixRhs& rhs, const Mat& x0, double t0, double t1,
                                 const IntegratorOptions& options = {});

/// Evolves a density matrix under a time-dependent Hamiltonian and fixed
/// collapse operators,
///   d rho/dt = -i[H(t), rho] + sum_k C_k rho C_k^dag - 1/2 {C_k^dag C_k, rho},
/// with RK45 and plain products.
Mat evolve_master_equation(const std::function<Mat(double)>& hamiltonian,
                           const std::vector<Mat>& collapse_ops, const Mat& rho0, double t0,
                           double t1, const IntegratorOptions& options = {});

}  // namespace qoc::oracle
