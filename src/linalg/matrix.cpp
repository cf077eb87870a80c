#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "linalg/simd_kernels.hpp"
#include "obs/obs.hpp"

namespace qoc::linalg {

Mat::Mat(std::initializer_list<std::initializer_list<cplx>> init) {
    rows_ = init.size();
    cols_ = rows_ == 0 ? 0 : init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
        if (row.size() != cols_) {
            throw std::invalid_argument("Mat: ragged initializer rows");
        }
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Mat::Mat(std::size_t rows, std::size_t cols, std::vector<cplx> values)
    : rows_(rows), cols_(cols), data_(std::move(values)) {
    if (data_.size() != rows_ * cols_) {
        throw std::invalid_argument("Mat: value count does not match shape");
    }
}

Mat Mat::identity(std::size_t n) {
    Mat m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = cplx{1.0, 0.0};
    return m;
}

Mat Mat::col_vector(std::vector<cplx> entries) {
    const std::size_t n = entries.size();
    return Mat(n, 1, std::move(entries));
}

void Mat::resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, cplx{0.0, 0.0});
}

Mat Mat::diag(const std::vector<cplx>& entries) {
    Mat m(entries.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) m(i, i) = entries[i];
    return m;
}

cplx& Mat::at(std::size_t i, std::size_t j) {
    if (i >= rows_ || j >= cols_) throw std::out_of_range("Mat::at");
    return data_[i * cols_ + j];
}

const cplx& Mat::at(std::size_t i, std::size_t j) const {
    if (i >= rows_ || j >= cols_) throw std::out_of_range("Mat::at");
    return data_[i * cols_ + j];
}

Mat& Mat::operator+=(const Mat& rhs) {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
        throw std::invalid_argument("Mat::operator+=: shape mismatch");
    }
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += rhs.data_[k];
    return *this;
}

Mat& Mat::operator-=(const Mat& rhs) {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
        throw std::invalid_argument("Mat::operator-=: shape mismatch");
    }
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= rhs.data_[k];
    return *this;
}

Mat& Mat::operator*=(cplx scalar) {
    for (auto& v : data_) v *= scalar;
    return *this;
}

Mat& Mat::operator*=(double scalar) {
    for (auto& v : data_) v *= scalar;
    return *this;
}

Mat Mat::adjoint() const {
    Mat out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            out(j, i) = std::conj((*this)(i, j));
    return out;
}

Mat Mat::transpose() const {
    Mat out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
    return out;
}

Mat Mat::conj() const {
    Mat out = *this;
    for (auto& v : out.data_) v = std::conj(v);
    return out;
}

cplx Mat::trace() const {
    if (!is_square()) throw std::invalid_argument("Mat::trace: non-square");
    cplx t{0.0, 0.0};
    for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
    return t;
}

double Mat::frobenius_norm() const {
    double s = 0.0;
    for (const auto& v : data_) s += std::norm(v);
    return std::sqrt(s);
}

namespace {
/// |v| as `sqrt(re^2 + im^2)` while the sum of squares is a finite normal
/// number; exact zero for a zero entry; `std::abs` (overflow- and
/// underflow-safe hypot) for everything else.
double magnitude(cplx v) {
    const double ss = v.real() * v.real() + v.imag() * v.imag();
    if (std::isnormal(ss)) return std::sqrt(ss);
    if (v.real() == 0.0 && v.imag() == 0.0) return 0.0;
    return std::abs(v);
}
}  // namespace

double Mat::max_abs() const {
    double m = 0.0;
    for (const auto& v : data_) m = std::max(m, magnitude(v));
    return m;
}

double Mat::norm_1() const {
    double best = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) {
        double colsum = 0.0;
        for (std::size_t i = 0; i < rows_; ++i) colsum += magnitude((*this)(i, j));
        if (std::isnan(colsum)) return colsum;  // std::max would drop it
        best = std::max(best, colsum);
    }
    return best;
}

bool Mat::is_hermitian(double tol) const {
    if (!is_square()) return false;
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = i; j < cols_; ++j)
            if (std::abs((*this)(i, j) - std::conj((*this)(j, i))) > tol) return false;
    return true;
}

bool Mat::is_unitary(double tol) const {
    if (!is_square()) return false;
    const Mat res = adjoint_times(*this, *this) - Mat::identity(rows_);
    return res.max_abs() <= tol;
}

bool Mat::approx_equal(const Mat& rhs, double tol) const {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) return false;
    for (std::size_t k = 0; k < data_.size(); ++k)
        if (std::abs(data_[k] - rhs.data_[k]) > tol) return false;
    return true;
}

Mat Mat::block(std::size_t r0, std::size_t c0, std::size_t nr, std::size_t nc) const {
    if (r0 + nr > rows_ || c0 + nc > cols_) throw std::out_of_range("Mat::block");
    Mat out(nr, nc);
    for (std::size_t i = 0; i < nr; ++i)
        for (std::size_t j = 0; j < nc; ++j) out(i, j) = (*this)(r0 + i, c0 + j);
    return out;
}

void Mat::set_block(std::size_t r0, std::size_t c0, const Mat& b) {
    if (r0 + b.rows() > rows_ || c0 + b.cols() > cols_) throw std::out_of_range("Mat::set_block");
    for (std::size_t i = 0; i < b.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) (*this)(r0 + i, c0 + j) = b(i, j);
}

Mat Mat::col(std::size_t j) const { return block(0, j, rows_, 1); }
Mat Mat::row(std::size_t i) const { return block(i, 0, 1, cols_); }

Mat operator+(Mat lhs, const Mat& rhs) {
    lhs += rhs;
    return lhs;
}

Mat operator-(Mat lhs, const Mat& rhs) {
    lhs -= rhs;
    return lhs;
}

Mat operator-(const Mat& m) {
    Mat out = m;
    for (auto& v : out.data()) v = -v;
    return out;
}

Mat operator*(Mat m, cplx scalar) {
    m *= scalar;
    return m;
}

Mat operator*(cplx scalar, Mat m) {
    m *= scalar;
    return m;
}

Mat operator*(Mat m, double scalar) {
    m *= scalar;
    return m;
}

Mat operator*(double scalar, Mat m) {
    m *= scalar;
    return m;
}

namespace {
/// The one dense complex product kernel: a counted `simd::gemm_raw` call on
/// shape-checked operands.
void gemm_counted(const Mat& a, const Mat& b, Mat& out, bool accumulate) {
    obs::count(obs::Cnt::kGemmCalls);
    simd::gemm_raw(a.data().data(), b.data().data(), out.data().data(), a.rows(), a.cols(),
                   b.cols(), accumulate);
}
}  // namespace

Mat operator*(const Mat& a, const Mat& b) {
    if (a.cols() != b.rows()) throw std::invalid_argument("Mat product: shape mismatch");
    Mat out(a.rows(), b.cols());
    gemm_counted(a, b, out, /*accumulate=*/false);
    return out;
}

Mat adjoint_times(const Mat& a, const Mat& b) {
    if (a.rows() != b.rows()) throw std::invalid_argument("adjoint_times: shape mismatch");
    const std::size_t n = a.cols(), k = a.rows(), m = b.cols();
    Mat out(n, m);
    for (std::size_t p = 0; p < k; ++p) {
        const cplx* arow = &a.data()[p * n];
        const cplx* brow = &b.data()[p * m];
        for (std::size_t i = 0; i < n; ++i) {
            const cplx w = std::conj(arow[i]);
            cplx* orow = &out.data()[i * m];
            for (std::size_t j = 0; j < m; ++j) orow[j] += w * brow[j];
        }
    }
    return out;
}

void gemm_into(const Mat& a, const Mat& b, Mat& out) {
    if (a.cols() != b.rows()) throw std::invalid_argument("gemm_into: shape mismatch");
    assert(&out != &a && &out != &b);
    out.resize(a.rows(), b.cols());
    gemm_counted(a, b, out, /*accumulate=*/false);
}

void gemm_acc(const Mat& a, const Mat& b, Mat& out) {
    if (a.cols() != b.rows() || out.rows() != a.rows() || out.cols() != b.cols()) {
        throw std::invalid_argument("gemm_acc: shape mismatch");
    }
    assert(&out != &a && &out != &b);
    gemm_counted(a, b, out, /*accumulate=*/true);
}

void adjoint_times_into(const Mat& a, const Mat& b, Mat& out) {
    if (a.rows() != b.rows()) throw std::invalid_argument("adjoint_times_into: shape mismatch");
    assert(&out != &a && &out != &b);
    obs::count(obs::Cnt::kGemmCalls);
    const std::size_t n = a.cols(), k = a.rows(), m = b.cols();
    out.resize(n, m);
    for (std::size_t p = 0; p < k; ++p) {
        const cplx* arow = &a.data()[p * n];
        const cplx* brow = &b.data()[p * m];
        for (std::size_t i = 0; i < n; ++i) {
            const cplx w = std::conj(arow[i]);
            cplx* orow = &out.data()[i * m];
            for (std::size_t j = 0; j < m; ++j) orow[j] += w * brow[j];
        }
    }
}

void add_scaled(Mat& y, cplx alpha, const Mat& x) {
    if (y.rows() != x.rows() || y.cols() != x.cols()) {
        throw std::invalid_argument("add_scaled: shape mismatch");
    }
    for (std::size_t i = 0; i < y.data().size(); ++i) y.data()[i] += alpha * x.data()[i];
}

void add_scaled(Mat& y, double alpha, const Mat& x) {
    if (y.rows() != x.rows() || y.cols() != x.cols()) {
        throw std::invalid_argument("add_scaled: shape mismatch");
    }
    // std::complex<double> is array-compatible with double[2].
    auto* yd = reinterpret_cast<double*>(y.data().data());
    const auto* xd = reinterpret_cast<const double*>(x.data().data());
    for (std::size_t i = 0; i < 2 * y.size(); ++i) yd[i] += alpha * xd[i];
}

cplx trace_of_product(const Mat& a, const Mat& b) {
    if (a.cols() != b.rows() || a.rows() != b.cols()) {
        throw std::invalid_argument("trace_of_product: shape mismatch");
    }
    const std::size_t n = a.rows(), k = a.cols();
    const auto* ad = reinterpret_cast<const double*>(a.data().data());
    const auto* bd = reinterpret_cast<const double*>(b.data().data());
    double tr = 0.0, ti = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            const double* av = ad + 2 * (i * k + j);
            const double* bv = bd + 2 * (j * n + i);
            tr += av[0] * bv[0] - av[1] * bv[1];
            ti += av[0] * bv[1] + av[1] * bv[0];
        }
    }
    return {tr, ti};
}

cplx hs_inner(const Mat& a, const Mat& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        throw std::invalid_argument("hs_inner: shape mismatch");
    }
    cplx s{0.0, 0.0};
    for (std::size_t k = 0; k < a.data().size(); ++k) s += std::conj(a.data()[k]) * b.data()[k];
    return s;
}

Mat commutator(const Mat& a, const Mat& b) { return a * b - b * a; }
Mat anticommutator(const Mat& a, const Mat& b) { return a * b + b * a; }

std::ostream& operator<<(std::ostream& os, const Mat& m) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
        os << (i == 0 ? "[[" : " [");
        for (std::size_t j = 0; j < m.cols(); ++j) {
            const cplx v = m(i, j);
            os << v.real();
            if (v.imag() >= 0) os << "+";
            os << v.imag() << "j";
            if (j + 1 < m.cols()) os << ", ";
        }
        os << (i + 1 == m.rows() ? "]]" : "]\n");
    }
    return os;
}

bool equal_up_to_phase(const Mat& a, const Mat& b, double tol) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    // Use the largest entry of b as phase reference to avoid dividing by ~0.
    std::size_t kmax = 0;
    double vmax = 0.0;
    for (std::size_t k = 0; k < b.data().size(); ++k) {
        const double v = std::abs(b.data()[k]);
        if (v > vmax) {
            vmax = v;
            kmax = k;
        }
    }
    if (vmax < tol) return a.max_abs() < tol;
    const cplx phase = a.data()[kmax] / b.data()[kmax];
    if (std::abs(std::abs(phase) - 1.0) > tol) return false;
    for (std::size_t k = 0; k < a.data().size(); ++k)
        if (std::abs(a.data()[k] - phase * b.data()[k]) > tol) return false;
    return true;
}

}  // namespace qoc::linalg
