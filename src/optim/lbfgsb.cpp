#include "optim/lbfgsb.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "contracts/contracts.hpp"
#include "obs/obs.hpp"
#include "optim/globalization.hpp"
#include "optim/solver_loop.hpp"

namespace qoc::optim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEpsMach = std::numeric_limits<double>::epsilon();

double dot(const std::vector<double>& a, const std::vector<double>& b) {
    return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
}

/// Tiny dense real LU solver for the 2m x 2m middle systems (m <= 10).
class SmallLu {
public:
    explicit SmallLu(std::vector<double> a, std::size_t n) : a_(std::move(a)), n_(n), piv_(n) {
        for (std::size_t i = 0; i < n_; ++i) piv_[i] = i;
        for (std::size_t k = 0; k < n_; ++k) {
            std::size_t p = k;
            double best = std::abs(at(k, k));
            for (std::size_t i = k + 1; i < n_; ++i)
                if (std::abs(at(i, k)) > best) {
                    best = std::abs(at(i, k));
                    p = i;
                }
            if (p != k) {
                for (std::size_t j = 0; j < n_; ++j) std::swap(at(k, j), at(p, j));
                std::swap(piv_[k], piv_[p]);
            }
            const double pivot = at(k, k);
            if (std::abs(pivot) < 1e-300) {
                singular_ = true;
                continue;
            }
            for (std::size_t i = k + 1; i < n_; ++i) {
                const double m = at(i, k) / pivot;
                at(i, k) = m;
                for (std::size_t j = k + 1; j < n_; ++j) at(i, j) -= m * at(k, j);
            }
        }
    }

    bool singular() const { return singular_; }

    std::vector<double> solve(const std::vector<double>& b) const {
        std::vector<double> x(n_);
        for (std::size_t i = 0; i < n_; ++i) x[i] = b[piv_[i]];
        for (std::size_t i = 1; i < n_; ++i)
            for (std::size_t k = 0; k < i; ++k) x[i] -= at(i, k) * x[k];
        for (std::size_t ii = n_; ii-- > 0;) {
            for (std::size_t k = ii + 1; k < n_; ++k) x[ii] -= at(ii, k) * x[k];
            x[ii] /= at(ii, ii);
        }
        return x;
    }

private:
    double& at(std::size_t i, std::size_t j) { return a_[i * n_ + j]; }
    const double& at(std::size_t i, std::size_t j) const { return a_[i * n_ + j]; }

    std::vector<double> a_;
    std::size_t n_;
    std::vector<std::size_t> piv_;
    bool singular_ = false;
};

/// Limited-memory model state: B = theta*I - W * M * W^T with
/// W = [Y, theta*S] and M^{-1} = K = [[-D, L^T], [L, theta*S^T S]].
struct LmModel {
    std::deque<std::vector<double>> s_list;
    std::deque<std::vector<double>> y_list;
    double theta = 1.0;

    std::size_t k() const { return s_list.size(); }

    /// Row b of W as a 2k vector: (y_0[b], ..., theta*s_0[b], ...).
    std::vector<double> w_row(std::size_t b) const {
        std::vector<double> w(2 * k());
        for (std::size_t i = 0; i < k(); ++i) {
            w[i] = y_list[i][b];
            w[k() + i] = theta * s_list[i][b];
        }
        return w;
    }

    /// W^T v.
    std::vector<double> wt_times(const std::vector<double>& v) const {
        std::vector<double> out(2 * k(), 0.0);
        for (std::size_t i = 0; i < k(); ++i) {
            out[i] = dot(y_list[i], v);
            out[k() + i] = theta * dot(s_list[i], v);
        }
        return out;
    }

    /// Accumulate W u into `out` (out += W u).
    void add_w_times(const std::vector<double>& u, std::vector<double>& out) const {
        for (std::size_t i = 0; i < k(); ++i) {
            const double a = u[i];
            const double b = theta * u[k() + i];
            const auto& y = y_list[i];
            const auto& s = s_list[i];
            for (std::size_t j = 0; j < out.size(); ++j) out[j] += a * y[j] + b * s[j];
        }
    }

    /// Builds the middle matrix K (row-major, size 2k x 2k).
    std::vector<double> build_k() const {
        const std::size_t m = k();
        std::vector<double> kk(4 * m * m, 0.0);
        auto at = [&](std::size_t i, std::size_t j) -> double& { return kk[i * 2 * m + j]; };
        for (std::size_t i = 0; i < m; ++i) {
            at(i, i) = -dot(s_list[i], y_list[i]);  // -D
            // L is strictly lower: L_{ij} = s_i^T y_j for i > j; the upper-left
            // off-diagonal block holds L^T.
            for (std::size_t j = 0; j < m; ++j) {
                if (i > j) at(m + i, j) = dot(s_list[i], y_list[j]);
                if (j > i) at(i, m + j) = dot(s_list[j], y_list[i]);
            }
            for (std::size_t j = 0; j < m; ++j) {
                at(m + i, m + j) = theta * dot(s_list[i], s_list[j]);
            }
        }
        return kk;
    }
};

struct CauchyResult {
    std::vector<double> x_cp;
    std::vector<double> c;           ///< W^T (x_cp - x)
    std::vector<bool> free_var;      ///< variables strictly inside bounds at x_cp
};

/// Generalized Cauchy point along the projected steepest-descent path
/// (Algorithm CP of Byrd et al.).
CauchyResult cauchy_point(const std::vector<double>& x, const std::vector<double>& g,
                          const Bounds& bounds, const LmModel& model, const SmallLu* k_lu) {
    const std::size_t n = x.size();
    const std::size_t twok = 2 * model.k();

    std::vector<double> t(n), d(n, 0.0);
    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double gi = g[i];
        if (gi < 0.0) {
            t[i] = (bounds.upper[i] >= kInf) ? kInf : (x[i] - bounds.upper[i]) / gi;
        } else if (gi > 0.0) {
            t[i] = (bounds.lower[i] <= -kInf) ? kInf : (x[i] - bounds.lower[i]) / gi;
        } else {
            t[i] = kInf;
        }
        if (t[i] > 0.0) {
            d[i] = -gi;
            if (t[i] < kInf) order.push_back(i);
        }
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return t[a] < t[b]; });

    auto m_solve = [&](const std::vector<double>& v) {
        return (k_lu != nullptr) ? k_lu->solve(v) : std::vector<double>(twok, 0.0);
    };

    std::vector<double> p = model.wt_times(d);
    std::vector<double> c(twok, 0.0);
    double fp = -dot(d, d);                                    // f'
    double fpp = -model.theta * fp;                            // theta*||d||^2
    if (twok > 0) fpp -= dot(p, m_solve(p));                   // - p^T M p
    double fpp0 = -model.theta * fp;
    double dt_min = (fpp > 0.0) ? -fp / fpp : kInf;
    double t_old = 0.0;

    CauchyResult res;
    res.x_cp = x;
    res.free_var.assign(n, false);
    std::vector<bool> fixed(n, false);
    for (std::size_t i = 0; i < n; ++i)
        if (t[i] <= 0.0) fixed[i] = true;  // at bound, gradient points outward

    std::size_t qi = 0;
    while (qi < order.size()) {
        const std::size_t b = order[qi];
        const double tb = t[b];
        const double dt = tb - t_old;
        if (dt_min < dt) break;  // minimizer inside this segment

        // Step to the breakpoint: variable b hits its bound.
        const double gb = g[b];
        const double zb = (d[b] > 0.0 ? bounds.upper[b] : bounds.lower[b]) - x[b];
        res.x_cp[b] = x[b] + zb;
        fixed[b] = true;

        for (std::size_t j = 0; j < twok; ++j) c[j] += dt * p[j];

        if (twok > 0) {
            const std::vector<double> wb = model.w_row(b);
            const std::vector<double> mc = m_solve(c);
            const std::vector<double> mp = m_solve(p);
            const std::vector<double> mw = m_solve(wb);
            fp += dt * fpp + gb * gb + model.theta * gb * zb - gb * dot(wb, mc);
            fpp -= model.theta * gb * gb + 2.0 * gb * dot(wb, mp) + gb * gb * dot(wb, mw);
            for (std::size_t j = 0; j < twok; ++j) p[j] += gb * wb[j];
        } else {
            fp += dt * fpp + gb * gb + model.theta * gb * zb;
            fpp -= model.theta * gb * gb;
        }
        fpp = std::max(fpp, kEpsMach * fpp0);
        d[b] = 0.0;
        dt_min = (fpp > 0.0) ? -fp / fpp : kInf;
        t_old = tb;
        ++qi;
        if (fp >= 0.0) {
            dt_min = 0.0;
            break;
        }
    }

    dt_min = std::max(dt_min, 0.0);
    if (!std::isfinite(dt_min)) {
        // All remaining directions unbounded but model non-convex along path:
        // fall back to the last breakpoint.
        dt_min = 0.0;
    }
    const double t_cp = t_old + dt_min;
    for (std::size_t i = 0; i < n; ++i) {
        if (!fixed[i]) {
            res.x_cp[i] = x[i] + t_cp * d[i];
            res.free_var[i] = true;
        }
    }
    for (std::size_t j = 0; j < twok; ++j) c[j] += dt_min * p[j];
    res.c = std::move(c);
    return res;
}

/// Direct primal subspace minimization over the free variables at the Cauchy
/// point (Section 5.1 of Byrd et al., via Sherman-Morrison-Woodbury).
/// Returns the full-space search target `xbar`.
std::vector<double> subspace_minimize(const std::vector<double>& x, const std::vector<double>& g,
                                      const Bounds& bounds, const LmModel& model,
                                      const std::vector<double>& k_mat, const SmallLu* k_lu,
                                      const CauchyResult& cp) {
    const std::size_t n = x.size();
    const std::size_t twok = 2 * model.k();
    std::vector<std::size_t> free_idx;
    for (std::size_t i = 0; i < n; ++i)
        if (cp.free_var[i]) free_idx.push_back(i);
    if (free_idx.empty()) return cp.x_cp;

    // Reduced gradient of the quadratic model at the Cauchy point:
    //   r = g + theta (x_cp - x) - W M c, restricted to the free set.
    std::vector<double> wmc(n, 0.0);
    if (twok > 0) {
        const std::vector<double> mc = k_lu->solve(cp.c);
        model.add_w_times(mc, wmc);
    }
    std::vector<double> r(free_idx.size());
    for (std::size_t a = 0; a < free_idx.size(); ++a) {
        const std::size_t i = free_idx[a];
        r[a] = g[i] + model.theta * (cp.x_cp[i] - x[i]) - wmc[i];
    }

    // Newton step on the free subspace:
    //   d = -(1/theta) r - (1/theta^2) Wf (K - Wf^T Wf / theta)^{-1} Wf^T r
    std::vector<double> dstep(free_idx.size());
    const double inv_theta = 1.0 / model.theta;
    if (twok == 0) {
        for (std::size_t a = 0; a < free_idx.size(); ++a) dstep[a] = -inv_theta * r[a];
    } else {
        // v = Wf^T r; N = K - (1/theta) Wf^T Wf.
        std::vector<double> v(twok, 0.0);
        std::vector<double> nmat = k_mat;
        std::vector<std::vector<double>> wrows(free_idx.size());
        for (std::size_t a = 0; a < free_idx.size(); ++a) {
            wrows[a] = model.w_row(free_idx[a]);
            for (std::size_t j = 0; j < twok; ++j) v[j] += wrows[a][j] * r[a];
        }
        for (std::size_t a = 0; a < free_idx.size(); ++a)
            for (std::size_t i = 0; i < twok; ++i)
                for (std::size_t j = 0; j < twok; ++j)
                    nmat[i * twok + j] -= inv_theta * wrows[a][i] * wrows[a][j];
        SmallLu nlu(std::move(nmat), twok);
        if (nlu.singular()) {
            for (std::size_t a = 0; a < free_idx.size(); ++a) dstep[a] = -inv_theta * r[a];
        } else {
            const std::vector<double> w = nlu.solve(v);
            for (std::size_t a = 0; a < free_idx.size(); ++a) {
                dstep[a] = -inv_theta * r[a] - inv_theta * inv_theta * dot(wrows[a], w);
            }
        }
    }

    // Backtrack into the box.
    double alpha = 1.0;
    for (std::size_t a = 0; a < free_idx.size(); ++a) {
        const std::size_t i = free_idx[a];
        const double xi = cp.x_cp[i];
        if (dstep[a] > 0.0 && bounds.upper[i] < kInf) {
            alpha = std::min(alpha, (bounds.upper[i] - xi) / dstep[a]);
        } else if (dstep[a] < 0.0 && bounds.lower[i] > -kInf) {
            alpha = std::min(alpha, (bounds.lower[i] - xi) / dstep[a]);
        }
    }
    alpha = std::max(alpha, 0.0);

    std::vector<double> xbar = cp.x_cp;
    for (std::size_t a = 0; a < free_idx.size(); ++a) {
        xbar[free_idx[a]] += alpha * dstep[a];
    }
    return xbar;
}

}  // namespace

OptimResult LbfgsB::minimize(const Objective& objective, std::vector<double> x0,
                             const Bounds& bounds) const {
    const std::size_t n = x0.size();
    if (bounds.lower.size() != n || bounds.upper.size() != n) {
        throw std::invalid_argument("LbfgsB: bounds dimension mismatch");
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (bounds.lower[i] > bounds.upper[i]) {
            throw std::invalid_argument("LbfgsB: lower bound exceeds upper bound");
        }
    }
    bounds.clip(x0);

    OptimResult res;
    res.x = std::move(x0);
    std::vector<double> g(n);
    res.f = objective(res.x, g);
    contracts::check_finite(res.f, "L-BFGS-B: objective value (x0)");
    contracts::check_all_finite(g, "L-BFGS-B: gradient (x0)");
    res.evaluations = 1;

    LmModel model;

    const SolverLoop loop(opts_.telemetry_label, opts_.iter_callback);
    LineSearchWorkspace ls_ws;
    double last_step = 0.0;  // accepted line-search alpha of the previous iteration

    for (res.iterations = 0; res.iterations < opts_.max_iterations; ++res.iterations) {
        res.grad_norm = projected_gradient_norm(res.x, g, bounds);
        loop.emit(res.iterations, res.f, res.grad_norm, last_step, res.evaluations);
        if (res.grad_norm <= opts_.pg_tol) {
            res.reason = StopReason::kConverged;
            return res;
        }
        if (const auto stop = loop.budget_stop(opts_.target_f, res.f, res.evaluations,
                                               opts_.max_evaluations)) {
            res.reason = *stop;
            return res;
        }

        // Build the middle matrix once per outer iteration.
        std::vector<double> k_mat;
        std::unique_ptr<SmallLu> k_lu;
        if (model.k() > 0) {
            k_mat = model.build_k();
            k_lu = std::make_unique<SmallLu>(k_mat, 2 * model.k());
            if (k_lu->singular()) {
                model.s_list.clear();
                model.y_list.clear();
                model.theta = 1.0;
                k_mat.clear();
                k_lu.reset();
            }
        }

        const CauchyResult cp = cauchy_point(res.x, g, bounds, model, k_lu.get());
        std::vector<double> xbar =
            subspace_minimize(res.x, g, bounds, model, k_mat, k_lu.get(), cp);

        std::vector<double> d(n);
        for (std::size_t i = 0; i < n; ++i) d[i] = xbar[i] - res.x[i];

        double dnorm = 0.0;
        for (double v : d) dnorm = std::max(dnorm, std::abs(v));
        if (dot(g, d) >= 0.0 || dnorm == 0.0) {
            // Fall back to the projected steepest-descent direction.
            for (std::size_t i = 0; i < n; ++i) {
                d[i] = std::clamp(res.x[i] - g[i], bounds.lower[i], bounds.upper[i]) - res.x[i];
            }
            if (dot(g, d) >= 0.0) {
                res.reason = StopReason::kConverged;
                return res;
            }
        }

        // Largest feasible step along d.
        double alpha_max = 1.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (d[i] > 0.0 && bounds.upper[i] < kInf) {
                alpha_max = std::min(alpha_max, (bounds.upper[i] - res.x[i]) / d[i]);
            } else if (d[i] < 0.0 && bounds.lower[i] > -kInf) {
                alpha_max = std::min(alpha_max, (bounds.lower[i] - res.x[i]) / d[i]);
            }
        }
        alpha_max = std::max(alpha_max, 0.0);

        const double f_old = res.f;
        std::vector<double> x_old = res.x;
        std::vector<double> g_old = g;
        const int evals_before = res.evaluations;
        const LineSearchResult ls = wolfe_search(objective, res.x, res.f, g, d, alpha_max,
                                                 res.evaluations, opts_.max_evaluations, ls_ws);
        if (!ls.ok) {
            if (model.k() > 0) {
                // Discard a possibly corrupted model and retry from scratch.
                model.s_list.clear();
                model.y_list.clear();
                model.theta = 1.0;
                continue;
            }
            res.reason = StopReason::kLineSearchFailed;
            return res;
        }
        last_step = ls.alpha;
        // Lock-free fixed-enum histogram: this sits on the optimizer hot loop.
        obs::hist_record(obs::Hist::kLbfgsbLineSearchEvals,
                         static_cast<std::uint64_t>(res.evaluations - evals_before));
        bounds.clip(res.x);

        // Curvature update.
        std::vector<double> s(n), y(n);
        for (std::size_t i = 0; i < n; ++i) {
            s[i] = res.x[i] - x_old[i];
            y[i] = g[i] - g_old[i];
        }
        const double sy = dot(s, y);
        const double yy = dot(y, y);
        if (sy > kEpsMach * yy && sy > 0.0) {
            model.s_list.push_back(std::move(s));
            model.y_list.push_back(std::move(y));
            if (model.s_list.size() > static_cast<std::size_t>(opts_.memory)) {
                model.s_list.pop_front();
                model.y_list.pop_front();
            }
            model.theta = yy / sy;
        }

        const double decrease = f_old - res.f;
        if (decrease <= opts_.f_tol * std::max({std::abs(f_old), std::abs(res.f), 1.0})) {
            res.grad_norm = projected_gradient_norm(res.x, g, bounds);
            res.reason = StopReason::kFtolReached;
            ++res.iterations;
            return res;
        }
    }
    res.grad_norm = projected_gradient_norm(res.x, g, bounds);
    res.reason = StopReason::kMaxIterations;
    return res;
}

OptimResult lbfgsb_minimize(const Objective& objective, std::vector<double> x0,
                            const Bounds& bounds, const LbfgsBOptions& options) {
    return LbfgsB(options).minimize(objective, std::move(x0), bounds);
}

}  // namespace qoc::optim
