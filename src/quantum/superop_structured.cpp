#include "quantum/superop_structured.hpp"

#include <stdexcept>

#include "linalg/simd_kernels.hpp"
#include "obs/obs.hpp"

namespace qoc::quantum {

StructuredSuperOp StructuredSuperOp::from_dense(const Mat& superop, double fill_cutoff) {
    if (!superop.is_square())
        throw std::invalid_argument("StructuredSuperOp::from_dense: non-square superoperator");
    StructuredSuperOp s;
    s.dense_ = superop;
    linalg::CsrMat csr = linalg::CsrMat::from_dense(superop, /*threshold=*/0.0);
    if (csr.fill_fraction() <= fill_cutoff) {
        s.csr_ = std::move(csr);
        s.kind_ = Kind::kCsr;
    } else {
        s.kind_ = Kind::kDense;
    }
    return s;
}

double StructuredSuperOp::fill_fraction() const noexcept {
    if (dense_.rows() == 0) return 1.0;
    std::size_t nnz = 0;
    for (const cplx& v : dense_.data())
        if (v != cplx{0.0, 0.0}) ++nnz;
    return static_cast<double>(nnz) /
           static_cast<double>(dense_.rows() * dense_.cols());
}

void StructuredSuperOp::apply_into(const Mat& vec_rho, Mat& out) const {
    if (vec_rho.cols() != 1 || vec_rho.rows() != dim())
        throw std::invalid_argument("StructuredSuperOp::apply_into: shape mismatch");
    out.resize(dim(), 1);
    if (kind_ == Kind::kCsr) {
        obs::count(obs::Cnt::kSuperopCsrApplies);
        csr_.apply_col(vec_rho.data().data(), out.data().data(), /*stride=*/1);
    } else {
        obs::count(obs::Cnt::kSuperopApplies);
        linalg::simd::gemm_raw(dense_.data().data(), vec_rho.data().data(),
                               out.data().data(), dim(), dim(), 1, /*accumulate=*/false);
    }
}

void StructuredSuperOp::apply_col(const cplx* in, cplx* out, std::size_t stride) const noexcept {
    const StructuredSuperOp* self = this;
    apply_mixed_cols(&self, 1, in, out, stride);
}

void StructuredSuperOp::apply_mixed_cols(const StructuredSuperOp* const* ops, std::size_t cols,
                                         const cplx* in, cplx* out,
                                         std::size_t stride) noexcept {
    const cplx* dense[kMaxMixedCols];
    for (std::size_t j = 0; j < cols; ++j) {
        obs::count(ops[j]->kind_ == Kind::kCsr ? obs::Cnt::kSuperopCsrApplies
                                               : obs::Cnt::kSuperopApplies);
        dense[j] = ops[j]->dense_.data().data();
    }
    linalg::simd::gemv_mixed(dense, cols, ops[0]->dim(), in, out, stride);
}

void StructuredSuperOp::apply_batch_into(const Mat& batch, Mat& out) const {
    if (batch.rows() != dim())
        throw std::invalid_argument("StructuredSuperOp::apply_batch_into: shape mismatch");
    out.resize(dim(), batch.cols());
    obs::count(obs::Cnt::kSuperopBatchApplies);
    if (kind_ == Kind::kCsr) {
        csr_.apply_batch_into(batch, out);
    } else {
        linalg::simd::gemm_raw(dense_.data().data(), batch.data().data(), out.data().data(),
                               dim(), dim(), batch.cols(), /*accumulate=*/false);
    }
}

}  // namespace qoc::quantum
