/// \file lbfgsb.hpp
/// \brief Bound-constrained limited-memory BFGS (L-BFGS-B).
///
/// From-scratch implementation of the algorithm of Byrd, Lu, Nocedal and Zhu
/// (SIAM J. Sci. Comput. 16(5), 1995): limited-memory compact quasi-Newton
/// model, generalized Cauchy point over the piecewise-linear projected path,
/// direct primal subspace minimization over the free variables, and a strong
/// Wolfe line search.  This is the optimizer the paper refers to as
/// "second-order GRAPE": QuTiP's `pulseoptim` drives SciPy's
/// `fmin_l_bfgs_b`, which implements the same algorithm.  Like the reference
/// code it keeps the correction pairs' Gram matrices and factors only k x k
/// blocks: with k <= 10 pairs, one iteration costs O(k n + k^3) plus O(k^2)
/// per variable of the smaller of the free and the bound-fixed sets, and,
/// after the solve's state is sized, allocates nothing.

#pragma once

#include "optim/problem.hpp"

namespace qoc::optim {

/// Minimizes a smooth objective subject to box constraints, starting from
/// `x0` clipped into the box.  Defaults for unset options mirror SciPy's
/// `fmin_l_bfgs_b`: 500 iterations, 5000 evaluations, projected-gradient
/// `tol` 1e-9, `f_tol` 2.2e-14, 10 correction pairs; label "lbfgsb".
/// `step` is ignored.
OptimResult lbfgsb_minimize(const Objective& objective, std::vector<double> x0,
                            const Bounds& bounds, const SolverOptions& options = {});

}  // namespace qoc::optim
