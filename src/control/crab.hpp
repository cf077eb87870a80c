/// \file crab.hpp
/// \brief CRAB (Chopped RAndom Basis) optimization baseline.
///
/// CRAB expands each control in a truncated, randomly-detuned Fourier basis
/// modulating a seed envelope and minimizes the gate infidelity over the
/// (few) basis coefficients with a direct-search method (Nelder-Mead).  The
/// paper cites CRAB's direct search as slow compared to gradient methods;
/// the optimizer-comparison ablation quantifies that claim.

#pragma once

#include <cstdint>

#include "control/grape.hpp"

namespace qoc::control {

/// CRAB's algorithm knobs; the budget comes from `optim::SolverOptions`.
struct CrabOptions {
    std::size_t n_basis = 4;       ///< Fourier components per control
    std::uint64_t seed = 12345;    ///< randomizes the basis frequencies
    double freq_jitter = 0.2;      ///< relative detuning of harmonics
    double coeff_bound = 1.0;      ///< box on the basis coefficients
};

/// Runs CRAB over the shared evaluator GRAPE uses.  The seed envelopes are
/// the problem's `initial_amps`; CRAB multiplies them by
/// `1 + sum_n a_n sin(w_n t) + b_n cos(w_n t)` and clips to the amplitude
/// box (per-control bounds included).  Nelder-Mead budget from `opts`;
/// unset fields mean 20000 evaluations, 5000 iterations, no target and the
/// telemetry label "crab".
GrapeResult crab_optimize(const ControlProblem& cp, const optim::SolverOptions& opts = {},
                          const CrabOptions& knobs = {});

}  // namespace qoc::control
