/// \file globalization.hpp
/// \brief L-BFGS-B's step rule and the projected-gradient stationarity
///        measure the bound-constrained solvers share.
///
/// L-BFGS-B produces a descent direction and delegates the "how far"
/// decision to `wolfe_search`: the strong Wolfe line search (Nocedal &
/// Wright Algorithms 3.5/3.6, cubic Hermite zoom) with the quasi-Newton
/// constants c1 = 1e-4, c2 = 0.9.

#pragma once

#include <vector>

#include "optim/problem.hpp"

namespace qoc::optim {

/// Outcome of one line search: the accepted step length along the search
/// direction, or `ok == false` when no acceptable point was found.
/// `non_finite` is set when a trial evaluation returned a NaN/Inf value or
/// gradient; the search then stops at once and leaves x/f/g untouched.
struct LineSearchResult {
    double alpha = 0.0;
    bool ok = false;
    bool non_finite = false;
};

/// Reusable scratch for `wolfe_search` (trial point and trial gradient).
/// Hot-loop callers keep one instance alive across iterations so repeated
/// searches allocate nothing after the first call.
struct LineSearchWorkspace {
    std::vector<double> xt, gt;
};

/// Strong Wolfe line search (c1 = 1e-4, c2 = 0.9) with cubic
/// interpolation in the zoom phase.
/// Returns the accepted step or `ok == false` on failure; updates f/g/x to
/// the accepted point and counts evaluations into `evals` (bounded by
/// `max_evals`).  `alpha_max` caps the step (bound-limited steps that still
/// satisfy sufficient decrease are accepted at the cap).
LineSearchResult wolfe_search(const Objective& objective, std::vector<double>& x,
                              double& f, std::vector<double>& g, const std::vector<double>& d,
                              double alpha_max, int& evals, int max_evals,
                              LineSearchWorkspace& ws);

/// Max-norm of the projected gradient -- the first-order stationarity
/// measure every bound-constrained solver shares.
double projected_gradient_norm(const std::vector<double>& x, const std::vector<double>& g,
                               const Bounds& bounds);

}  // namespace qoc::optim
