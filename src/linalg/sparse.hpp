/// \file sparse.hpp
/// \brief Compressed-sparse-row complex matrix with a no-alloc batch apply,
///        for sparse superoperators (memoized Clifford superops: rz-only
///        elements are exactly diagonal, many others carry large blocks of
///        structural zeros).
///
/// Construction scans a dense row-major matrix once and keeps entries with
/// `|v| > threshold`; the default threshold 0.0 drops only exact zeros, so
/// a CSR apply visits precisely the terms the dense SIMD kernel's
/// zero-skip visits -- the two paths round identically (both accumulate in
/// ascending column order through the simd kernel family).

#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace qoc::linalg {

class CsrMat {
public:
    /// Empty 0x0 matrix.
    CsrMat() = default;

    /// Compresses `dense`, keeping entries with magnitude > `threshold`.
    static CsrMat from_dense(const Mat& dense, double threshold = 0.0);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    std::size_t nnz() const noexcept { return vals_.size(); }
    bool empty() const noexcept { return rows_ == 0; }

    /// Stored fraction nnz / (rows * cols); 1.0 for the empty matrix.
    double fill_fraction() const noexcept;

    /// Reconstructs the dense form (dropped entries become exact zeros).
    Mat to_dense() const;

    /// `out = (*this) * b` against a row-major dense batch (d^2 x B), one
    /// broadcast-fma sweep per stored nonzero.  `out` resized in place.
    void apply_batch_into(const Mat& b, Mat& out) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<cplx> vals_;
    std::vector<int> cols_idx_;
    std::vector<int> rowptr_;
};

}  // namespace qoc::linalg
