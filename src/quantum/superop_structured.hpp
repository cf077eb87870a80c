/// \file superop_structured.hpp
/// \brief `StructuredSuperOp` -- the single dispatch point between dense and
///        CSR superoperator application.
///
/// Construction keeps the dense d^2 x d^2 matrix (it is small: 256 x 256
/// for two qubits with leakage) and additionally compresses to CSR when the
/// stored fill fraction is at most `kCsrFillCutoff`.  `kind()` reports which
/// representation `apply_batch_into` uses; the mixed-column step always
/// runs on the dense form.  Threshold 0.0 compression drops only exact
/// structural zeros, and the dense SIMD gemm skips exactly those entries,
/// so the two kinds produce bitwise-identical results (see
/// simd_kernels.hpp); dispatch is purely a speed decision.

#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace qoc::quantum {

using linalg::Mat;
using linalg::cplx;

/// Stored-fill fraction at or below which `from_dense` keeps a CSR form and
/// dispatches batch applies through it.  At 0.5 nnz, the CSR sweep moves
/// half the flops AND half the memory of the dense gemm; above it the dense
/// kernel's contiguous loads win.
inline constexpr double kCsrFillCutoff = 0.5;

class StructuredSuperOp {
public:
    enum class Kind { kDense, kCsr };

    /// Empty (invalid) superoperator; `valid() == false`.
    StructuredSuperOp() = default;

    /// Wraps a dense d^2 x d^2 superoperator, compressing to CSR (threshold
    /// 0.0: exact zeros only) when the fill fraction is <= `kCsrFillCutoff`.
    static StructuredSuperOp from_dense(const Mat& superop);

    bool valid() const noexcept { return dense_.rows() != 0; }
    Kind kind() const noexcept { return kind_; }

    /// Superoperator side length d^2.
    std::size_t dim() const noexcept { return dense_.rows(); }

    /// Stored-nonzero fraction of the dense form.
    double fill_fraction() const noexcept;

    const Mat& dense() const noexcept { return dense_; }
    const linalg::CsrMat& csr() const noexcept { return csr_; }

    /// Most columns one `apply_mixed_cols` call takes.
    static constexpr std::size_t kMaxMixedCols = 8;

    /// The SoA seed engine's mixed step: column j (< `cols` <=
    /// `kMaxMixedCols`) of a row-major batch with row stride `stride`
    /// advances by `*ops[j]`.  All operators share one `dim()`.  Runs
    /// `simd::gemv_mixed` on the dense forms whatever each operator's
    /// `kind()`, bitwise equal to `apply_batch_into` of either kind for
    /// finite input, and counts one dense apply per column.
    static void apply_mixed_cols(const StructuredSuperOp* const* ops, std::size_t cols,
                                 const cplx* in, cplx* out, std::size_t stride) noexcept;

    /// `out = S * batch` against a row-major d^2 x B seed block -- ONE
    /// kernel sweep per Clifford step for the whole block (the broadcast
    /// path).  `out` resized in place; no alias.
    void apply_batch_into(const Mat& batch, Mat& out) const;

private:
    Mat dense_;
    linalg::CsrMat csr_;
    Kind kind_ = Kind::kDense;
};

}  // namespace qoc::quantum
