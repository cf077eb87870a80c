#include "linalg/sparse.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/simd_kernels.hpp"

namespace qoc::linalg {

CsrMat CsrMat::from_dense(const Mat& dense, double threshold) {
    CsrMat m;
    m.rows_ = dense.rows();
    m.cols_ = dense.cols();
    m.rowptr_.reserve(m.rows_ + 1);
    m.rowptr_.push_back(0);
    for (std::size_t i = 0; i < m.rows_; ++i) {
        for (std::size_t j = 0; j < m.cols_; ++j) {
            const cplx v = dense(i, j);
            if (std::abs(v) > threshold) {
                m.vals_.push_back(v);
                m.cols_idx_.push_back(static_cast<int>(j));
            }
        }
        m.rowptr_.push_back(static_cast<int>(m.vals_.size()));
    }
    return m;
}

double CsrMat::fill_fraction() const noexcept {
    const std::size_t total = rows_ * cols_;
    if (total == 0) return 1.0;
    return static_cast<double>(nnz()) / static_cast<double>(total);
}

Mat CsrMat::to_dense() const {
    Mat dense(rows_, cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (int idx = rowptr_[i]; idx < rowptr_[i + 1]; ++idx) {
            dense(i, static_cast<std::size_t>(cols_idx_[idx])) = vals_[idx];
        }
    }
    return dense;
}

void CsrMat::apply_batch_into(const Mat& b, Mat& out) const {
    if (b.rows() != cols_) throw std::invalid_argument("CsrMat::apply_batch_into: shape");
    out.resize(rows_, b.cols());
    simd::csr_gemm_raw(vals_.data(), cols_idx_.data(), rowptr_.data(), rows_,
                       b.data().data(), out.data().data(), b.cols(), /*accumulate=*/false);
}

}  // namespace qoc::linalg
