#include "linalg/real_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/simd_kernels.hpp"
#include "obs/obs.hpp"

namespace qoc::linalg {

RMat RMat::identity(std::size_t n) {
    RMat m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

void RMat::resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
}

RMat& RMat::operator+=(const RMat& rhs) {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
        throw std::invalid_argument("RMat::operator+=: shape mismatch");
    }
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += rhs.data_[k];
    return *this;
}

RMat& RMat::operator-=(const RMat& rhs) {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
        throw std::invalid_argument("RMat::operator-=: shape mismatch");
    }
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= rhs.data_[k];
    return *this;
}

RMat& RMat::operator*=(double scalar) {
    for (double& v : data_) v *= scalar;
    return *this;
}

double RMat::norm_1() const {
    double best = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) {
        double s = 0.0;
        for (std::size_t i = 0; i < rows_; ++i) s += std::abs((*this)(i, j));
        if (std::isnan(s)) return s;  // std::max would drop it
        best = std::max(best, s);
    }
    return best;
}

void gemm_into(const RMat& a, const RMat& b, RMat& out) {
    if (a.cols() != b.rows()) throw std::invalid_argument("gemm_into: shape mismatch");
    assert(&out != &a && &out != &b);
    // The product overwrites every entry, so a same-shape `out` skips the
    // zero fill.
    if (out.rows() != a.rows() || out.cols() != b.cols()) out.resize(a.rows(), b.cols());
    obs::count(obs::Cnt::kGemmCalls);
    simd::dgemm_raw(a.data().data(), b.data().data(), out.data().data(), a.rows(), a.cols(),
                    b.cols(), /*accumulate=*/false);
}

void gemm_acc(const RMat& a, const RMat& b, RMat& out) {
    if (a.cols() != b.rows() || out.rows() != a.rows() || out.cols() != b.cols()) {
        throw std::invalid_argument("gemm_acc: shape mismatch");
    }
    assert(&out != &a && &out != &b);
    obs::count(obs::Cnt::kGemmCalls);
    simd::dgemm_raw(a.data().data(), b.data().data(), out.data().data(), a.rows(), a.cols(),
                    b.cols(), /*accumulate=*/true);
}

void add_scaled(RMat& y, double alpha, const RMat& x) {
    if (y.rows() != x.rows() || y.cols() != x.cols()) {
        throw std::invalid_argument("add_scaled: shape mismatch");
    }
    for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] += alpha * x.data()[i];
}

double trace_of_product(const RMat& a, const RMat& b) {
    if (a.cols() != b.rows() || a.rows() != b.cols()) {
        throw std::invalid_argument("trace_of_product: shape mismatch");
    }
    double t = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) t += a(i, j) * b(j, i);
    return t;
}

}  // namespace qoc::linalg
