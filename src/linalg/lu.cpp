#include "linalg/lu.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "linalg/simd_kernels.hpp"
#include "obs/obs.hpp"

namespace qoc::linalg {

namespace {

/// `y[j] -= l * x[j]` over `m` complex entries, written out in real
/// arithmetic on the interleaved doubles (no NaN-recovery branch, no
/// per-row dispatch).
inline void row_update(cplx* y, const cplx* x, cplx l, std::size_t m) noexcept {
    auto* yd = reinterpret_cast<double*>(y);
    const auto* xd = reinterpret_cast<const double*>(x);
    const double lr = l.real(), li = l.imag();
    for (std::size_t j = 0; j < m; ++j) {
        const double xr = xd[2 * j], xi = xd[2 * j + 1];
        yd[2 * j] -= lr * xr - li * xi;
        yd[2 * j + 1] -= lr * xi + li * xr;
    }
}

/// `y[j] *= s` over `m` complex entries in real arithmetic.
inline void row_scale(cplx* y, cplx s, std::size_t m) noexcept {
    auto* yd = reinterpret_cast<double*>(y);
    const double sr = s.real(), si = s.imag();
    for (std::size_t j = 0; j < m; ++j) {
        const double yr = yd[2 * j], yi = yd[2 * j + 1];
        yd[2 * j] = yr * sr - yi * si;
        yd[2 * j + 1] = yr * si + yi * sr;
    }
}

/// Pivot magnitude `|re| + |im|` (LAPACK izamax): no hypot, same pivot
/// as `std::abs` up to a factor of sqrt(2).
inline double pivot_size(cplx v) noexcept { return std::abs(v.real()) + std::abs(v.imag()); }

}  // namespace

Lu::Lu(const Mat& a) { factor(a); }

void Lu::factor(const Mat& a) {
    if (!a.is_square()) throw std::invalid_argument("Lu: non-square matrix");
    obs::count(obs::Cnt::kLuFactorizations);
    lu_ = a;  // vector copy-assign: reuses capacity on same-size refactor
    singular_ = false;
    pivot_sign_ = 1;
    const std::size_t n = a.rows();
    piv_.resize(n);
    for (std::size_t i = 0; i < n; ++i) piv_[i] = i;
    inv_diag_.resize(n);

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivot: largest |re| + |im| in column k at/below the diagonal.
        std::size_t p = k;
        double best = pivot_size(lu_(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double v = pivot_size(lu_(i, k));
            if (v > best) {
                best = v;
                p = i;
            }
        }
        if (p != k) {
            for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(p, j));
            std::swap(piv_[k], piv_[p]);
            pivot_sign_ = -pivot_sign_;
        }
        const cplx pivot = lu_(k, k);
        if (std::abs(pivot) < 1e-300) {
            singular_ = true;
            continue;
        }
        // The one complex division of this column; the multipliers and the
        // back substitution reuse the reciprocal.
        const cplx inv = 1.0 / pivot;
        inv_diag_[k] = inv;
        for (std::size_t i = k + 1; i < n; ++i) {
            const cplx lik = lu_(i, k);
            if (lik == cplx{0.0, 0.0}) continue;
            const cplx m{lik.real() * inv.real() - lik.imag() * inv.imag(),
                         lik.real() * inv.imag() + lik.imag() * inv.real()};
            lu_(i, k) = m;
            row_update(&lu_(i, k + 1), &lu_(k, k + 1), m, n - k - 1);
        }
    }
}

cplx Lu::det() const {
    cplx d{static_cast<double>(pivot_sign_), 0.0};
    for (std::size_t i = 0; i < lu_.rows(); ++i) d *= lu_(i, i);
    return d;
}

Mat Lu::solve(const Mat& b) const {
    Mat x;
    solve_into(b, x);
    return x;
}

void Lu::solve_into(const Mat& b, Mat& x) const {
    if (singular_) throw std::runtime_error("Lu::solve: singular matrix");
    const std::size_t n = lu_.rows();
    if (b.rows() != n) throw std::invalid_argument("Lu::solve: rhs shape mismatch");
    assert(&x != &b);
    const std::size_t m = b.cols();

    // Apply permutation.
    x.resize(n, m);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < m; ++j) x(i, j) = b(piv_[i], j);

    // Forward substitution (L has unit diagonal), one row update per
    // nonzero multiplier.
    for (std::size_t i = 1; i < n; ++i)
        for (std::size_t k = 0; k < i; ++k) {
            const cplx lik = lu_(i, k);
            if (lik == cplx{0.0, 0.0}) continue;
            row_update(&x(i, 0), &x(k, 0), lik, m);
        }

    // Back substitution, multiplying by the reciprocal pivots kept by factor.
    for (std::size_t ii = n; ii-- > 0;) {
        for (std::size_t k = ii + 1; k < n; ++k) {
            const cplx uik = lu_(ii, k);
            if (uik == cplx{0.0, 0.0}) continue;
            row_update(&x(ii, 0), &x(k, 0), uik, m);
        }
        row_scale(&x(ii, 0), inv_diag_[ii], m);
    }
}

Mat Lu::inverse() const { return solve(Mat::identity(lu_.rows())); }

void RLu::factor(const RMat& a) {
    if (a.rows() != a.cols()) throw std::invalid_argument("RLu: non-square matrix");
    obs::count(obs::Cnt::kLuFactorizations);
    lu_ = a;  // vector copy-assign: reuses capacity on same-size refactor
    const std::size_t n = a.rows();
    piv_.resize(n);
    inv_diag_.resize(n);
    singular_ = !simd::dlu_factor(lu_.data().data(), n, piv_.data(), inv_diag_.data());
}

void RLu::solve_into(const RMat& b, RMat& x) const {
    if (singular_) throw std::runtime_error("RLu::solve: singular matrix");
    const std::size_t n = lu_.rows();
    if (b.rows() != n) throw std::invalid_argument("RLu::solve: rhs shape mismatch");
    assert(&x != &b);
    // The solve overwrites every entry, so a same-shape `x` skips the zero fill.
    if (x.rows() != n || x.cols() != b.cols()) x.resize(n, b.cols());
    simd::dlu_solve(lu_.data().data(), piv_.data(), inv_diag_.data(), n, b.data().data(),
                    x.data().data(), b.cols());
}

Mat solve(const Mat& a, const Mat& b) { return Lu(a).solve(b); }
Mat inverse(const Mat& a) { return Lu(a).inverse(); }
cplx det(const Mat& a) { return Lu(a).det(); }

}  // namespace qoc::linalg
