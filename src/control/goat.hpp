/// \file goat.hpp
/// \brief GOAT-style optimization of analytic (Fourier-parameterized)
///        controls.
///
/// The paper cites GOAT (Machnes et al., PRL 120, 150401) as a modern
/// alternative to piecewise-constant GRAPE: the controls are smooth analytic
/// functions of a few parameters, and the gradient with respect to those
/// parameters is exact.  Here each control is
///
///   u_j(t; theta) = squash( env(t) * sum_n [ a_{jn} sin(w_n t)
///                                          + b_{jn} cos(w_n t) ] )
///
/// with w_n = 2 pi n / T, an optional smooth envelope forcing u(0)=u(T)=0,
/// and a tanh squash keeping |u| < amp_bound smoothly (so the gradient
/// remains exact, unlike hard clipping).  The time grid is discretized
/// finely; gradients chain GRAPE's exact per-slot derivative through
/// d u / d theta.

#pragma once

#include "control/grape.hpp"

namespace qoc::control {

/// GOAT's parameterization knobs; the budget comes from
/// `optim::SolverOptions`.
struct GoatOptions {
    std::size_t n_harmonics = 4;    ///< Fourier components per control
    std::size_t n_fine = 128;       ///< fine PWC slots for propagation
    double amp_bound = 0.0;         ///< tanh squash bound; <= 0 disables
    bool use_envelope = true;       ///< multiply by sin(pi t / T) (zero ends)
    double param_bound = 2.0;       ///< box on the Fourier coefficients
    std::vector<double> initial_params;  ///< optional warm start (size 2*H*n_ctrl)
};

/// A GOAT run: the shared result (amplitudes on the fine grid) plus the
/// optimized Fourier coefficients.
struct GoatResult : GrapeResult {
    std::vector<double> params;  ///< optimized Fourier coefficients
};

/// Optimizes the analytic controls for a (closed- or open-system)
/// GrapeProblem; the problem's n_timeslots/initial_amps/amplitude box are
/// ignored in favor of the fine grid, the Fourier parameterization and the
/// `amp_bound` squash.  L-BFGS-B budget from `opts`; unset fields mean 300
/// iterations, target error 1e-10 and the telemetry label "goat".
GoatResult goat_optimize(const GrapeProblem& problem, const optim::SolverOptions& opts = {},
                         const GoatOptions& knobs = {});

/// Samples the parameterized controls on `n_fine` slots (exposed for
/// plotting and testing).
ControlAmplitudes goat_controls(const std::vector<double>& params, std::size_t n_ctrl,
                                double evo_time, const GoatOptions& options);

}  // namespace qoc::control
