#include "optim/lbfgsb.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "contracts/contracts.hpp"
#include "obs/obs.hpp"
#include "optim/globalization.hpp"
#include "optim/solver_loop.hpp"

namespace qoc::optim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEpsMach = std::numeric_limits<double>::epsilon();
constexpr std::size_t kMemory = 10;           ///< (s, y) correction pairs kept
constexpr std::size_t kSlots = kMemory + 1;   ///< ring rows: the pairs plus one spare
constexpr std::size_t kMaxMid = 2 * kMemory;  ///< largest middle-matrix order

double dot(const double* a, const double* b, std::size_t n) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
}

/// out[r] = rows[r] . v for r < count.  Every sum runs in index order, so
/// each entry has the bits of a sequential `dot`; four rows advance together
/// so the adds form independent chains held in registers.
void multi_dot_into(const double* const* rows, std::size_t count, const double* v,
                    std::size_t n, double* out) {
    std::size_t r = 0;
    for (; r + 4 <= count; r += 4) {
        const double* a = rows[r];
        const double* b = rows[r + 1];
        const double* c = rows[r + 2];
        const double* d = rows[r + 3];
        double sa = 0.0, sb = 0.0, sc = 0.0, sd = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            sa += a[j] * v[j];
            sb += b[j] * v[j];
            sc += c[j] * v[j];
            sd += d[j] * v[j];
        }
        out[r] = sa;
        out[r + 1] = sb;
        out[r + 2] = sc;
        out[r + 3] = sd;
    }
    for (; r < count; ++r) out[r] = dot(rows[r], v, n);
}

// The k x k blocks of the middle matrices: row-major with a fixed leading
// dimension, so they live in fixed storage and never allocate.
constexpr std::size_t kLd = kMemory;
using Block = std::array<double, kMemory * kMemory>;
using Mid = std::array<double, kMaxMid>;

/// In-place Cholesky a = J J^T of the leading m x m block (lower triangle
/// read and overwritten with J).  False unless every pivot is positive and
/// finite.
bool cholesky_into(double* a, std::size_t m) {
    for (std::size_t j = 0; j < m; ++j) {
        double piv = a[j * kLd + j];
        for (std::size_t l = 0; l < j; ++l) piv -= a[j * kLd + l] * a[j * kLd + l];
        if (!(piv > 0.0) || !std::isfinite(piv)) return false;
        const double jj = std::sqrt(piv);
        a[j * kLd + j] = jj;
        for (std::size_t i = j + 1; i < m; ++i) {
            double sum = a[i * kLd + j];
            for (std::size_t l = 0; l < j; ++l) sum -= a[i * kLd + l] * a[j * kLd + l];
            a[i * kLd + j] = sum / jj;
        }
    }
    return true;
}

/// x <- J^{-1} x for a Cholesky factor J.
void forward_into(const double* jf, std::size_t m, double* x) {
    for (std::size_t i = 0; i < m; ++i) {
        double sum = x[i];
        for (std::size_t l = 0; l < i; ++l) sum -= jf[i * kLd + l] * x[l];
        x[i] = sum / jf[i * kLd + i];
    }
}

/// x <- J^{-T} x for a Cholesky factor J.
void backward_into(const double* jf, std::size_t m, double* x) {
    for (std::size_t i = m; i-- > 0;) {
        double sum = x[i];
        for (std::size_t l = i + 1; l < m; ++l) sum -= jf[l * kLd + i] * x[l];
        x[i] = sum / jf[i * kLd + i];
    }
}

/// Everything one L-BFGS-B solve touches per iteration, sized once before the
/// first iteration so that an iteration allocates nothing.
///
/// The model is B = theta*I - W M W^T with W = [Y, theta*S] and
/// M^{-1} = K = [[-D, L^T], [L, theta*S^T S]] (Byrd et al., eq. 3.5).  The
/// k <= kMemory pairs are rows of a ring: pair i (0 = oldest) sits in slot
/// (head + i) % kSlots, and the one slot no pair holds takes the next
/// candidate, so a rejected candidate costs nothing.  The Gram matrices
/// S^T S, S^T Y and Y^T Y are cached per slot pair and updated with O(k n)
/// dot products when a pair is pushed (the reference code's `matupd`).  K is
/// never formed: M = K^{-1} is applied through the Cholesky factor of the
/// k x k matrix T = theta S^T S + L D^{-1} L^T (the reference `formt` /
/// `bmv`), and the subspace matrix N = K - Wf^T Wf / theta through two k x k
/// Cholesky factors (`formk`).  Both are assembled from the cache, so the
/// small algebra costs O(k^3) per iteration whatever n is.
struct LbfgsbState {
    explicit LbfgsbState(std::size_t n_vars)
        : n(n_vars),
          s_ring(kSlots * n_vars),
          y_ring(kSlots * n_vars),
          packed(2 * kMemory * n_vars),
          t(n_vars),
          d(n_vars),
          x_cp(n_vars),
          r(n_vars),
          wv(n_vars),
          xbar(n_vars),
          is_free(n_vars),
          heap(n_vars),
          fixed_idx(n_vars),
          x_old(n_vars),
          g_old(n_vars) {
        ls.xt.resize(n_vars);
        ls.gt.resize(n_vars);
    }

    std::size_t slot(std::size_t i) const { return (head + i) % kSlots; }
    double* s_row(std::size_t slot_id) { return s_ring.data() + slot_id * n; }
    double* y_row(std::size_t slot_id) { return y_ring.data() + slot_id * n; }

    /// Drops every pair (singular K or a failed line search).
    void reset_model() {
        k = 0;
        head = 0;
        theta = 1.0;
        obs::count(obs::Cnt::kLbfgsbModelResets);
    }

    std::size_t n;

    // Limited-memory model.
    std::vector<double> s_ring, y_ring;  ///< kSlots rows of n
    std::size_t head = 0;                ///< slot of the oldest pair
    std::size_t k = 0;                   ///< pairs held
    double theta = 1.0;
    /// Per slot pair (p, q) at p * kSlots + q: s_p.s_q, s_p.y_q, y_p.y_q.
    std::array<double, kSlots * kSlots> ss{}, sy{}, yy{};
    /// Rows of W^T in pair order: y_0..y_{k-1} then s_0..s_{k-1}.
    std::array<const double*, kMaxMid> w_rows{};

    // M = K^{-1}: L (strictly lower, L_ij = s_i . y_j), D and chol(T).
    Block lmat{}, tchol{};
    std::array<double, kMemory> dvec{};
    // N = [[-P, A], [A^T, C]]: chol(P), Z = chol(P)^{-1} A, chol(C + Z^T Z).
    Block pchol{}, amat{}, schol{};
    // Sums of y y^T, y s^T, s s^T over a set of variable rows, and the rows
    // of W^T restricted to that set.
    Block gyy{}, gys{}, gss{};
    std::vector<double> packed;  ///< 2 kMemory rows of n

    // Cauchy point and subspace step.  `d` is the projected-gradient path,
    // then the outer iteration's search direction.
    std::vector<double> t, d, x_cp, r, wv, xbar;
    Mid p{}, c{}, wb{}, mw{}, v{}, u{};
    std::vector<unsigned char> is_free;
    std::vector<std::size_t> heap;       ///< breakpoint min-heap on t
    std::vector<std::size_t> fixed_idx;  ///< variables fixed at the Cauchy point
    std::size_t n_fixed = 0;

    // Outer iteration.
    std::vector<double> x_old, g_old;
    LineSearchWorkspace ls;
};

/// Rebuilds `w_rows` for the current pairs and factors the model's middle
/// matrix from the Gram cache: L, D and T = theta S^T S + L D^{-1} L^T =
/// J J^T.  K is singular exactly when T is, and the model is then reset.
void factor_model_into(LbfgsbState& st) {
    const std::size_t m = st.k;
    if (m == 0) return;
    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t si = st.slot(i);
        st.w_rows[i] = st.y_row(si);
        st.w_rows[m + i] = st.s_row(si);
        st.dvec[i] = st.sy[si * kSlots + si];
        for (std::size_t j = 0; j < i; ++j) st.lmat[i * kLd + j] = st.sy[si * kSlots + st.slot(j)];
    }
    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t si = st.slot(i);
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = st.theta * st.ss[si * kSlots + st.slot(j)];
            for (std::size_t l = 0; l < j; ++l)
                sum += st.lmat[i * kLd + l] * st.lmat[j * kLd + l] / st.dvec[l];
            st.tchol[i * kLd + j] = sum;
        }
    }
    if (!cholesky_into(st.tchol.data(), m)) st.reset_model();
}

/// x = M v = K^{-1} v (length 2k; x and v must not alias).  Block elimination
/// of K = [[-D, L^T], [L, theta S^T S]]:
///   x2 = T^{-1} (v2 + L D^{-1} v1),  x1 = D^{-1} (L^T x2 - v1).
void m_solve_into(const LbfgsbState& st, const double* v, double* x) {
    const std::size_t m = st.k;
    const double* v1 = v;
    const double* v2 = v + m;
    double* x1 = x;
    double* x2 = x + m;
    for (std::size_t i = 0; i < m; ++i) {
        double sum = v2[i];
        for (std::size_t l = 0; l < i; ++l) sum += st.lmat[i * kLd + l] * v1[l] / st.dvec[l];
        x2[i] = sum;
    }
    forward_into(st.tchol.data(), m, x2);
    backward_into(st.tchol.data(), m, x2);
    for (std::size_t l = 0; l < m; ++l) {
        double sum = -v1[l];
        for (std::size_t i = l + 1; i < m; ++i) sum += st.lmat[i * kLd + l] * x2[i];
        x1[l] = sum / st.dvec[l];
    }
}

/// Gathers row `b` of W, (y_0[b], ..., theta*s_0[b], ...), into `out`.
void w_row_into(const LbfgsbState& st, std::size_t b, double* out) {
    const std::size_t m = st.k;
    for (std::size_t i = 0; i < m; ++i) {
        out[i] = st.w_rows[i][b];
        out[m + i] = st.theta * st.w_rows[m + i][b];
    }
}

/// out = W^T v.
void wt_times_into(const LbfgsbState& st, const double* v, double* out) {
    const std::size_t m = st.k;
    multi_dot_into(st.w_rows.data(), 2 * m, v, st.n, out);
    for (std::size_t i = 0; i < m; ++i) out[m + i] *= st.theta;
}

/// out = W u (length n).
void w_times_into(const LbfgsbState& st, const double* u, double* out) {
    const std::size_t m = st.k;
    std::fill(out, out + st.n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        const double a = u[i];
        const double b = st.theta * u[m + i];
        const double* y = st.w_rows[i];
        const double* s = st.w_rows[m + i];
        for (std::size_t j = 0; j < st.n; ++j) out[j] += a * y[j] + b * s[j];
    }
}

/// Generalized Cauchy point along the projected steepest-descent path
/// (Algorithm CP of Byrd et al.).  Fills `x_cp`, `c` = W^T (x_cp - x),
/// `is_free` and the fixed-variable list.  Breakpoints come off a heap
/// (the reference `hpsolb`): building it is O(n) and only the breakpoints
/// the path reaches are popped.
void cauchy_point_into(LbfgsbState& st, const std::vector<double>& x,
                       const std::vector<double>& g, const Bounds& bounds) {
    const std::size_t n = st.n;
    const std::size_t two = 2 * st.k;
    const double theta = st.theta;
    std::vector<double>& t = st.t;
    std::vector<double>& d = st.d;

    std::size_t n_break = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double gi = g[i];
        if (gi < 0.0) {
            t[i] = (bounds.upper[i] >= kInf) ? kInf : (x[i] - bounds.upper[i]) / gi;
        } else if (gi > 0.0) {
            t[i] = (bounds.lower[i] <= -kInf) ? kInf : (x[i] - bounds.lower[i]) / gi;
        } else {
            t[i] = kInf;
        }
        st.x_cp[i] = x[i];
        // At a bound with the gradient pointing outward: fixed from the start.
        st.is_free[i] = t[i] > 0.0;
        d[i] = 0.0;
        if (t[i] > 0.0) {
            d[i] = -gi;
            if (t[i] < kInf) st.heap[n_break++] = i;
        }
    }
    const auto later = [&t](std::size_t a, std::size_t b) { return t[a] > t[b]; };
    const auto heap_begin = st.heap.begin();
    std::make_heap(heap_begin, heap_begin + static_cast<std::ptrdiff_t>(n_break), later);

    double* p = st.p.data();
    double* c = st.c.data();
    double* mw = st.mw.data();
    if (two > 0) wt_times_into(st, d.data(), p);
    std::fill(c, c + two, 0.0);
    double fp = -dot(d.data(), d.data(), n);  // f'
    double fpp = -theta * fp;                 // theta*||d||^2
    if (two > 0) {
        m_solve_into(st, p, mw);
        fpp -= dot(p, mw, two);  // - p^T M p
    }
    const double fpp0 = -theta * fp;
    double dt_min = (fpp > 0.0) ? -fp / fpp : kInf;
    double t_old = 0.0;

    while (n_break > 0) {
        const std::size_t b = st.heap[0];
        const double tb = t[b];
        const double dt = tb - t_old;
        if (dt_min < dt) break;  // minimizer inside this segment
        std::pop_heap(heap_begin, heap_begin + static_cast<std::ptrdiff_t>(n_break), later);
        --n_break;

        // Step to the breakpoint: variable b hits its bound.
        const double gb = g[b];
        const double zb = (d[b] > 0.0 ? bounds.upper[b] : bounds.lower[b]) - x[b];
        st.x_cp[b] = x[b] + zb;
        st.is_free[b] = 0;

        for (std::size_t j = 0; j < two; ++j) c[j] += dt * p[j];

        if (two > 0) {
            // M is symmetric, so w_b^T M u = (M w_b)^T u: one solve per breakpoint.
            double* wb = st.wb.data();
            w_row_into(st, b, wb);
            m_solve_into(st, wb, mw);
            fp += dt * fpp + gb * gb + theta * gb * zb - gb * dot(mw, c, two);
            fpp -= theta * gb * gb + 2.0 * gb * dot(mw, p, two) + gb * gb * dot(mw, wb, two);
            for (std::size_t j = 0; j < two; ++j) p[j] += gb * wb[j];
        } else {
            fp += dt * fpp + gb * gb + theta * gb * zb;
            fpp -= theta * gb * gb;
        }
        fpp = std::max(fpp, kEpsMach * fpp0);
        d[b] = 0.0;
        dt_min = (fpp > 0.0) ? -fp / fpp : kInf;
        t_old = tb;
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
    st.n_fixed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (st.is_free[i]) {
            st.x_cp[i] = x[i] + t_cp * d[i];
        } else {
            st.fixed_idx[st.n_fixed++] = i;
        }
    }
    for (std::size_t j = 0; j < two; ++j) c[j] += dt_min * p[j];
}

/// gyy, gys, gss = the sums of y y^T, y s^T and s s^T over the variable
/// rows in `idx` (y = (y_0[b], ..., y_{k-1}[b]), likewise s).  The rows of
/// Y and S restricted to `idx` are first gathered into contiguous rows, so
/// every entry is one dot product of length `count`.
void gram_sum_into(LbfgsbState& st, const std::size_t* idx, std::size_t count) {
    const std::size_t m = st.k;
    std::array<const double*, kMaxMid> rows{};
    for (std::size_t i = 0; i < 2 * m; ++i) {
        double* dst = st.packed.data() + i * st.n;
        const double* src = st.w_rows[i];
        for (std::size_t a = 0; a < count; ++a) dst[a] = src[idx[a]];
        rows[i] = dst;
    }
    const double* const* yr = rows.data();
    const double* const* sr = rows.data() + m;
    Mid dots{};
    for (std::size_t i = 0; i < m; ++i) {
        multi_dot_into(yr, i + 1, yr[i], count, dots.data());
        for (std::size_t j = 0; j <= i; ++j) st.gyy[i * kLd + j] = dots[j];
        multi_dot_into(sr, i + 1, sr[i], count, dots.data());
        for (std::size_t j = 0; j <= i; ++j) st.gss[i * kLd + j] = dots[j];
        multi_dot_into(sr, m, yr[i], count, dots.data());
        for (std::size_t j = 0; j < m; ++j) st.gys[i * kLd + j] = dots[j];
    }
}

/// Factors the subspace matrix N = K - theta^{-1} Wf^T Wf (Wf: the free rows
/// of W) in block form, as the reference `formk` does:
///   N = [[-P, A], [A^T, C]],  P = D + Yf^T Yf / theta,  A = L^T - Yf^T Sf,
///   C = theta (S^T S - Sf^T Sf),
///   P = Jp Jp^T,  Z = Jp^{-1} A,  C + Z^T Z = Js Js^T.
/// The full Y^T Y, Y^T S, S^T S come from the Gram cache, so only the rows
/// of the smaller of the free and the fixed sets are summed:
/// O(k^2 min(n_free, n_fixed) + k^3).  False when N is numerically singular.
bool factor_subspace_into(LbfgsbState& st, std::size_t n_free) {
    const std::size_t m = st.k;
    const double theta = st.theta;
    const bool sum_fixed = st.n_fixed <= n_free;
    if (sum_fixed) {
        gram_sum_into(st, st.fixed_idx.data(), st.n_fixed);
    } else {
        // The free rows, listed in the heap buffer the Cauchy search is done with.
        std::size_t n_listed = 0;
        for (std::size_t i = 0; i < st.n; ++i)
            if (st.is_free[i]) st.heap[n_listed++] = i;
        gram_sum_into(st, st.heap.data(), n_listed);
    }
    // The sums cover the listed set; the cache completes them to the free
    // (Y^T S, Y^T Y) or the fixed (S^T S) set.
    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t si = st.slot(i);
        for (std::size_t j = 0; j < m; ++j) {
            const std::size_t sj = st.slot(j);
            const double lt = (j > i) ? st.lmat[j * kLd + i] : 0.0;  // (L^T)_ij
            const double g_ys = st.gys[i * kLd + j];
            const double ys_free = sum_fixed ? st.sy[sj * kSlots + si] - g_ys : g_ys;
            st.amat[i * kLd + j] = lt - ys_free;
            if (j > i) continue;
            const double g_yy = st.gyy[i * kLd + j];
            const double yy_free = sum_fixed ? st.yy[si * kSlots + sj] - g_yy : g_yy;
            const double g_ss = st.gss[i * kLd + j];
            const double ss_fixed = sum_fixed ? g_ss : st.ss[si * kSlots + sj] - g_ss;
            st.pchol[i * kLd + j] = (i == j ? st.dvec[i] : 0.0) + yy_free / theta;
            st.schol[i * kLd + j] = theta * ss_fixed;
        }
    }
    if (!cholesky_into(st.pchol.data(), m)) return false;
    // Z = Jp^{-1} A, column by column (A is overwritten with Z).
    for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t i = 0; i < m; ++i) st.u[i] = st.amat[i * kLd + j];
        forward_into(st.pchol.data(), m, st.u.data());
        for (std::size_t i = 0; i < m; ++i) st.amat[i * kLd + j] = st.u[i];
    }
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = 0.0;
            for (std::size_t l = 0; l < m; ++l) sum += st.amat[l * kLd + i] * st.amat[l * kLd + j];
            st.schol[i * kLd + j] += sum;
        }
    return cholesky_into(st.schol.data(), m);
}

/// x = N^{-1} v for the factored subspace matrix (length 2k; no aliasing):
///   x2 = (C + Z^T Z)^{-1} (v2 + Z^T Jp^{-1} v1),  x1 = Jp^{-T} (Z x2 - Jp^{-1} v1).
void n_solve_into(LbfgsbState& st, const double* v, double* x) {
    const std::size_t m = st.k;
    double* w = st.u.data();
    double* x1 = x;
    double* x2 = x + m;
    std::copy(v, v + m, w);
    forward_into(st.pchol.data(), m, w);
    for (std::size_t i = 0; i < m; ++i) {
        double sum = v[m + i];
        for (std::size_t l = 0; l < m; ++l) sum += st.amat[l * kLd + i] * w[l];
        x2[i] = sum;
    }
    forward_into(st.schol.data(), m, x2);
    backward_into(st.schol.data(), m, x2);
    for (std::size_t i = 0; i < m; ++i) {
        double sum = -w[i];
        for (std::size_t l = 0; l < m; ++l) sum += st.amat[i * kLd + l] * x2[l];
        x1[i] = sum;
    }
    backward_into(st.pchol.data(), m, x1);
}

/// Direct primal subspace minimization over the free variables at the Cauchy
/// point (Section 5.1 of Byrd et al., via Sherman-Morrison-Woodbury).
/// Writes the full-space search target into `xbar`.
void subspace_minimize_into(LbfgsbState& st, const std::vector<double>& x,
                            const std::vector<double>& g, const Bounds& bounds) {
    const std::size_t n = st.n;
    const std::size_t two = 2 * st.k;
    std::vector<double>& xbar = st.xbar;
    std::copy(st.x_cp.begin(), st.x_cp.end(), xbar.begin());
    const std::size_t n_free = n - st.n_fixed;
    if (n_free == 0) return;

    // Reduced gradient of the quadratic model at the Cauchy point:
    //   r = g + theta (x_cp - x) - W M c on the free set, 0 on the fixed set.
    double* wv = st.wv.data();
    if (two > 0) {
        m_solve_into(st, st.c.data(), st.mw.data());
        w_times_into(st, st.mw.data(), wv);
    } else {
        std::fill(st.wv.begin(), st.wv.end(), 0.0);
    }
    std::vector<double>& r = st.r;
    for (std::size_t i = 0; i < n; ++i) {
        r[i] = st.is_free[i] ? g[i] + st.theta * (st.x_cp[i] - x[i]) - wv[i] : 0.0;
    }

    // Newton step on the free subspace, written over r:
    //   d = -(1/theta) r - (1/theta^2) Wf N^{-1} Wf^T r,  N = K - Wf^T Wf / theta.
    const double inv_theta = 1.0 / st.theta;
    bool low_rank = false;
    if (two > 0) {
        if (factor_subspace_into(st, n_free)) {
            wt_times_into(st, r.data(), st.v.data());  // Wf^T r: r is 0 off the free set
            n_solve_into(st, st.v.data(), st.mw.data());
            w_times_into(st, st.mw.data(), wv);
            low_rank = true;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (!st.is_free[i]) continue;
        r[i] = -inv_theta * r[i];
        if (low_rank) r[i] -= inv_theta * inv_theta * wv[i];
    }

    // Backtrack into the box.
    double alpha = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!st.is_free[i]) continue;
        const double xi = st.x_cp[i];
        if (r[i] > 0.0 && bounds.upper[i] < kInf) {
            alpha = std::min(alpha, (bounds.upper[i] - xi) / r[i]);
        } else if (r[i] < 0.0 && bounds.lower[i] > -kInf) {
            alpha = std::min(alpha, (bounds.lower[i] - xi) / r[i]);
        }
    }
    alpha = std::max(alpha, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        if (st.is_free[i]) xbar[i] += alpha * r[i];
    }
}

/// Offers the pair s = x - x_old, y = g - g_old to the model.  It is built in
/// the spare ring slot and kept only if it passes the curvature test; a kept
/// pair evicts the oldest once kMemory are held, and its Gram entries are
/// filled with 4k dot products.
void push_pair_into(LbfgsbState& st, const std::vector<double>& x,
                    const std::vector<double>& g) {
    const std::size_t n = st.n;
    const std::size_t sp = st.slot(st.k);  // spare slot
    double* s = st.s_row(sp);
    double* y = st.y_row(sp);
    for (std::size_t i = 0; i < n; ++i) {
        s[i] = x[i] - st.x_old[i];
        y[i] = g[i] - st.g_old[i];
    }
    const double sy = dot(s, y, n);
    const double yy = dot(y, y, n);
    if (!(sy > kEpsMach * yy && sy > 0.0)) return;

    if (st.k == kMemory) {
        st.head = (st.head + 1) % kSlots;
    } else {
        ++st.k;
    }
    st.theta = yy / sy;

    // Gram entries of the new pair against every held pair (itself last).
    const std::size_t m = st.k;
    std::array<const double*, kMaxMid> rows{};
    for (std::size_t i = 0; i + 1 < m; ++i) {
        rows[i] = st.s_row(st.slot(i));
        rows[m - 1 + i] = st.y_row(st.slot(i));
    }
    Mid with_s{}, with_y{};
    multi_dot_into(rows.data(), 2 * (m - 1), s, n, with_s.data());
    multi_dot_into(rows.data(), 2 * (m - 1), y, n, with_y.data());
    // with_s = (s_q . s, y_q . s) and with_y = (s_q . y, y_q . y) over the
    // held pairs q; ss and yy are symmetric, sy is not.
    for (std::size_t i = 0; i + 1 < m; ++i) {
        const std::size_t q = st.slot(i);
        st.ss[sp * kSlots + q] = st.ss[q * kSlots + sp] = with_s[i];
        st.sy[q * kSlots + sp] = with_y[i];
        st.sy[sp * kSlots + q] = with_s[m - 1 + i];
        st.yy[sp * kSlots + q] = st.yy[q * kSlots + sp] = with_y[m - 1 + i];
    }
    st.ss[sp * kSlots + sp] = dot(s, s, n);
    st.sy[sp * kSlots + sp] = sy;
    st.yy[sp * kSlots + sp] = yy;
}

}  // namespace

OptimResult lbfgsb_minimize(const Objective& objective, std::vector<double> x0,
                            const Bounds& bounds, const SolverOptions& opts) {
    const std::size_t n = x0.size();
    bounds.check(n, "L-BFGS-B");
    bounds.clip(x0);
    const int max_iterations = opts.max_iterations.value_or(500);
    const int max_evaluations = opts.max_evaluations.value_or(5000);
    const double pg_tol = opts.tol.value_or(1e-9);
    const double f_tol = opts.f_tol.value_or(2.2e-14);

    OptimResult res;
    res.x = std::move(x0);
    std::vector<double> g(n);
    res.f = objective(res.x, g);
    contracts::check_finite(res.f, "L-BFGS-B: objective value (x0)");
    contracts::check_all_finite(g, "L-BFGS-B: gradient (x0)");
    res.evaluations = 1;

    LbfgsbState st(n);

    const SolverLoop loop(opts.telemetry_label ? opts.telemetry_label : "lbfgsb",
                          opts.iter_callback);
    double last_step = 0.0;  // accepted line-search alpha of the previous iteration

    for (res.iterations = 0; res.iterations < max_iterations; ++res.iterations) {
        res.grad_norm = projected_gradient_norm(res.x, g, bounds);
        loop.emit(res.iterations, res.f, res.grad_norm, last_step, res.evaluations);
        if (!SolverLoop::all_finite(res.f, g)) {
            res.reason = StopReason::kNonFinite;
            return res;
        }
        if (res.grad_norm <= pg_tol) {
            res.reason = StopReason::kConverged;
            return res;
        }
        if (const auto stop =
                loop.budget_stop(opts.target_f, res.f, res.evaluations, max_evaluations)) {
            res.reason = *stop;
            return res;
        }

        factor_model_into(st);
        cauchy_point_into(st, res.x, g, bounds);
        if (st.n_fixed > 0) obs::count(obs::Cnt::kLbfgsbBoxActiveIters);
        subspace_minimize_into(st, res.x, g, bounds);

        std::vector<double>& d = st.d;
        double dnorm = 0.0;
        double gd = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            d[i] = st.xbar[i] - res.x[i];
            dnorm = std::max(dnorm, std::abs(d[i]));
            gd += g[i] * d[i];
        }
        if (gd >= 0.0 || dnorm == 0.0) {
            // Fall back to the projected steepest-descent direction.
            gd = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                d[i] = std::clamp(res.x[i] - g[i], bounds.lower[i], bounds.upper[i]) - res.x[i];
                gd += g[i] * d[i];
            }
            if (gd >= 0.0) {
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
        std::copy(res.x.begin(), res.x.end(), st.x_old.begin());
        std::copy(g.begin(), g.end(), st.g_old.begin());
        const int evals_before = res.evaluations;
        const LineSearchResult ls = wolfe_search(objective, res.x, res.f, g, d, alpha_max,
                                                 res.evaluations, max_evaluations, st.ls);
        if (ls.non_finite) {
            res.reason = StopReason::kNonFinite;
            return res;
        }
        if (!ls.ok) {
            // A search cut short by the evaluation budget is not a failure.
            if (const auto stop =
                    loop.budget_stop(opts.target_f, res.f, res.evaluations, max_evaluations)) {
                res.reason = *stop;
                return res;
            }
            if (st.k > 0) {
                // Discard a possibly corrupted model and retry from scratch.
                st.reset_model();
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

        push_pair_into(st, res.x, g);

        const double decrease = f_old - res.f;
        if (decrease <= f_tol * std::max({std::abs(f_old), std::abs(res.f), 1.0})) {
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

}  // namespace qoc::optim
