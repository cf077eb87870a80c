#include "optim/globalization.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "contracts/contracts.hpp"
#include "optim/solver_loop.hpp"

namespace qoc::optim {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
    return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
}

// Strong Wolfe constants: sufficient decrease and (quasi-Newton) curvature.
constexpr double kC1 = 1e-4;
constexpr double kC2 = 0.9;

}  // namespace

LineSearchResult wolfe_search(const Objective& objective, std::vector<double>& x,
                              double& f, std::vector<double>& g, const std::vector<double>& d,
                              double alpha_max, int& evals, int max_evals,
                              LineSearchWorkspace& ws) {
    const double phi0 = f;
    const double dphi0 = dot(g, d);
    if (dphi0 >= 0.0) return {};

    const std::size_t n = x.size();
    ws.xt.resize(n);
    ws.gt.resize(n);
    std::vector<double>& xt = ws.xt;
    std::vector<double>& gt = ws.gt;
    auto eval = [&](double a, double& fa, double& dfa) {
        for (std::size_t i = 0; i < n; ++i) xt[i] = x[i] + a * d[i];
        fa = objective(xt, gt);
        contracts::check_finite(fa, "line search: objective value");
        contracts::check_all_finite(gt, "line search: gradient");
        ++evals;
        dfa = dot(gt, d);
        return SolverLoop::all_finite(fa, gt);
    };
    constexpr LineSearchResult kNonFinite{0.0, false, true};

    auto accept = [&](double a, double fa) {
        for (std::size_t i = 0; i < n; ++i) x[i] += a * d[i];
        f = fa;
        g = gt;
        return LineSearchResult{a, true};
    };

    // Cubic minimizer of a Hermite interpolant on [a_lo, a_hi].
    auto cubic = [](double a0, double f0, double df0, double a1, double f1, double df1) {
        const double d1 = df0 + df1 - 3.0 * (f0 - f1) / (a0 - a1);
        const double disc = d1 * d1 - df0 * df1;
        if (disc < 0.0) return 0.5 * (a0 + a1);
        const double d2 = std::copysign(std::sqrt(disc), a1 - a0);
        double amin = a1 - (a1 - a0) * (df1 + d2 - d1) / (df1 - df0 + 2.0 * d2);
        if (!std::isfinite(amin)) return 0.5 * (a0 + a1);
        const double lo = std::min(a0, a1), hi = std::max(a0, a1);
        return std::clamp(amin, lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo));
    };

    auto zoom = [&](double alo, double flo, double dflo, double ahi, double fhi,
                    double dfhi) -> LineSearchResult {
        for (int it = 0; it < 30 && evals < max_evals; ++it) {
            const double a = cubic(alo, flo, dflo, ahi, fhi, dfhi);
            double fa, dfa;
            if (!eval(a, fa, dfa)) return kNonFinite;
            if (fa > phi0 + kC1 * a * dphi0 || fa >= flo) {
                ahi = a;
                fhi = fa;
                dfhi = dfa;
            } else {
                if (std::abs(dfa) <= -kC2 * dphi0) return accept(a, fa);
                if (dfa * (ahi - alo) >= 0.0) {
                    ahi = alo;
                    fhi = flo;
                    dfhi = dflo;
                }
                alo = a;
                flo = fa;
                dflo = dfa;
            }
            if (std::abs(ahi - alo) < 1e-16 * std::max(1.0, std::abs(alo))) break;
        }
        // Fall back to the best sufficient-decrease point found, if any.
        if (flo < phi0 + kC1 * alo * dphi0 && alo > 0.0) {
            double fa, dfa;
            if (!eval(alo, fa, dfa)) return kNonFinite;
            return accept(alo, fa);
        }
        return {};
    };

    double a_prev = 0.0, f_prev = phi0, df_prev = dphi0;
    double a = std::min(1.0, alpha_max);
    for (int it = 0; it < 20 && evals < max_evals; ++it) {
        double fa, dfa;
        if (!eval(a, fa, dfa)) return kNonFinite;
        if (fa > phi0 + kC1 * a * dphi0 || (it > 0 && fa >= f_prev)) {
            return zoom(a_prev, f_prev, df_prev, a, fa, dfa);
        }
        if (std::abs(dfa) <= -kC2 * dphi0) return accept(a, fa);
        if (dfa >= 0.0) return zoom(a, fa, dfa, a_prev, f_prev, df_prev);
        if (a >= alpha_max * (1.0 - 1e-12)) {
            // Bound-limited step that still satisfies sufficient decrease.
            return accept(a, fa);
        }
        a_prev = a;
        f_prev = fa;
        df_prev = dfa;
        a = std::min(2.0 * a, alpha_max);
    }
    return {};
}

double projected_gradient_norm(const std::vector<double>& x, const std::vector<double>& g,
                               const Bounds& bounds) {
    double norm = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        double step = x[i] - g[i];
        step = std::clamp(step, bounds.lower[i], bounds.upper[i]);
        norm = std::max(norm, std::abs(step - x[i]));
    }
    return norm;
}

}  // namespace qoc::optim
