/// \file gradient_check.hpp
/// \brief Test oracle: central finite-difference gradient verification, the
///        reference the analytic GRAPE and solver-test gradients are checked
///        against.

#pragma once

#include "optim/problem.hpp"

namespace qoc::oracle {

struct GradientCheckResult {
    double max_abs_error = 0.0;   ///< worst |analytic - numeric|
    double max_rel_error = 0.0;   ///< worst relative error over significant entries
    std::size_t worst_index = 0;
};

/// Compares the analytic gradient of `objective` at `x` against central
/// finite differences with step `h`.
GradientCheckResult check_gradient(const optim::Objective& objective,
                                   const std::vector<double>& x, double h = 1e-6);

}  // namespace qoc::oracle
