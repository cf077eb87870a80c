#include "linalg/lu.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "linalg/simd_kernels.hpp"
#include "obs/obs.hpp"

namespace qoc::linalg {

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

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivot: largest magnitude in column k at/below the diagonal.
        std::size_t p = k;
        double best = std::abs(lu_(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double v = std::abs(lu_(i, k));
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
        for (std::size_t i = k + 1; i < n; ++i) {
            const cplx m = lu_(i, k) / pivot;
            lu_(i, k) = m;
            if (m == cplx{0.0, 0.0}) continue;
            for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= m * lu_(k, j);
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

    // Forward substitution (L has unit diagonal); the row updates vectorize
    // over the right-hand-side columns.
    for (std::size_t i = 1; i < n; ++i)
        for (std::size_t k = 0; k < i; ++k) {
            const cplx lik = lu_(i, k);
            if (lik == cplx{0.0, 0.0}) continue;
            simd::row_sub_scaled(&x(i, 0), &x(k, 0), lik, m);
        }

    // Back substitution.
    for (std::size_t ii = n; ii-- > 0;) {
        for (std::size_t k = ii + 1; k < n; ++k) {
            const cplx uik = lu_(ii, k);
            if (uik == cplx{0.0, 0.0}) continue;
            simd::row_sub_scaled(&x(ii, 0), &x(k, 0), uik, m);
        }
        const cplx d = lu_(ii, ii);
        for (std::size_t j = 0; j < m; ++j) x(ii, j) /= d;
    }
}

Mat Lu::inverse() const { return solve(Mat::identity(lu_.rows())); }

Mat solve(const Mat& a, const Mat& b) { return Lu(a).solve(b); }
Mat inverse(const Mat& a) { return Lu(a).inverse(); }
cplx det(const Mat& a) { return Lu(a).det(); }

}  // namespace qoc::linalg
