/// \file problem.hpp
/// \brief Common types for the numerical optimizers: objectives, box bounds,
///        the one `SolverOptions` every solver takes, and the result types.

#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace qoc::optim {

/// Smooth objective: returns f(x) and fills `grad` (resized by the caller to
/// x.size()).
using Objective = std::function<double(const std::vector<double>& x, std::vector<double>& grad)>;

/// Objective for derivative-free methods.
using ScalarObjective = std::function<double(const std::vector<double>& x)>;

/// Box bounds.  The solvers need one entry per variable on both sides (use
/// `unbounded(n)` for no box); `check` rejects anything else.  `clip` and
/// `contains` skip components a short vector does not cover.
struct Bounds {
    std::vector<double> lower;  ///< elementwise lower bound, or empty
    std::vector<double> upper;  ///< elementwise upper bound, or empty

    static constexpr double kInf = std::numeric_limits<double>::infinity();

    /// Unbounded problem of dimension n.
    static Bounds unbounded(std::size_t n) {
        Bounds b;
        b.lower.assign(n, -kInf);
        b.upper.assign(n, kInf);
        return b;
    }

    /// Uniform box [lo, hi]^n.
    static Bounds uniform(std::size_t n, double lo, double hi) {
        Bounds b;
        b.lower.assign(n, lo);
        b.upper.assign(n, hi);
        return b;
    }

    /// Clips x into the box in place.
    void clip(std::vector<double>& x) const;

    /// True when l <= x <= u holds elementwise.
    bool contains(const std::vector<double>& x) const;

    /// Throws `std::invalid_argument` (prefixed with `solver`) unless both
    /// sides have exactly `n` entries and lower <= upper everywhere.
    void check(std::size_t n, const char* solver) const;
};

/// Why an optimizer stopped.
enum class StopReason {
    kConverged,        ///< gradient / simplex tolerance reached
    kFtolReached,      ///< relative objective decrease below ftol
    kMaxIterations,    ///< iteration budget exhausted
    kMaxEvaluations,   ///< function-evaluation budget exhausted
    kLineSearchFailed, ///< no acceptable step found
    kTargetReached,    ///< objective fell below the user's goal
    kNonFinite,        ///< an evaluation returned a NaN/Inf value or gradient
};

/// Human-readable stop reason (for logs and reports).
std::string to_string(StopReason reason);

/// One optimizer iteration, as passed to iteration callbacks and emitted to
/// the `qoc::obs` telemetry stream.  Every solver emits one per outer
/// iteration (derivative-free methods report `grad_norm = 0`).
struct IterationRecord {
    int iteration = 0;
    double cost = 0.0;        ///< objective value at this iterate
    double grad_norm = 0.0;   ///< max-norm of the projected gradient
    double step = 0.0;        ///< accepted line-search step length (0 at iter 0)
    int n_fun_evals = 0;      ///< cumulative objective evaluations so far
    double wall_time_s = 0.0; ///< elapsed wall time since the solver started
};

/// Typed per-iteration observer.
using IterationCallback = std::function<void(const IterationRecord&)>;

/// The one options type every solver takes.  An unset field means that
/// solver's own default (documented on each `*_minimize`).
struct SolverOptions {
    std::optional<int> max_iterations;
    std::optional<int> max_evaluations;
    /// Primary convergence tolerance: projected-gradient max-norm for the
    /// gradient-based solvers, simplex x-spread for Nelder-Mead.
    std::optional<double> tol;
    std::optional<double> f_tol;     ///< relative objective-decrease tolerance
    std::optional<double> target_f;  ///< stop early once f <= target_f
    /// Primary step knob: learning rate (gradient descent) or initial
    /// simplex edge (Nelder-Mead).  Line-searching solvers ignore it.
    std::optional<double> step;
    IterationCallback iter_callback;
    /// Optimizer tag on telemetry records (unset = the solver's own name).
    /// Must be a string literal (or otherwise outlive the solve).
    const char* telemetry_label = nullptr;
};

/// Outcome shared by the optimizers.
struct OptimResult {
    std::vector<double> x;      ///< final iterate
    double f = 0.0;             ///< objective at x
    double grad_norm = 0.0;     ///< max-norm of the projected gradient
    int iterations = 0;
    int evaluations = 0;
    StopReason reason = StopReason::kMaxIterations;
};

/// The call shape of the gradient-based solvers (`lbfgsb_minimize`,
/// `gradient_descent_minimize`), for callers that take the algorithm as a
/// parameter.
using Minimizer = OptimResult (*)(const Objective& objective, std::vector<double> x0,
                                  const Bounds& bounds, const SolverOptions& options);

}  // namespace qoc::optim
