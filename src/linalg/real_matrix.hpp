/// \file real_matrix.hpp
/// \brief Minimal dense real row-major matrix for the real-arithmetic Pade
///        engine.
///
/// Open-system GRAPE runs its Lindblad slot algebra in an orthonormal
/// Hermitian operator basis, where every generator, propagator and target
/// is a real matrix (see control_problem.hpp).  `RMat` carries exactly the
/// operations the shared Pade engine (expm.hpp) and the evaluator need:
/// shape, element access, the in-place sums, the 1-norm, and the counted
/// `simd::dgemm_raw` products.  Its LU is `RLu` (lu.hpp).

#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace qoc::linalg {

/// Dense row-major real matrix with value semantics.
///
/// Invariants: `data().size() == rows() * cols()`.  A default-constructed
/// matrix is the 0x0 empty matrix.
class RMat {
public:
    RMat() = default;

    /// Creates a `rows` x `cols` matrix of zeros.
    RMat(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

    /// The `n` x `n` identity.
    static RMat identity(std::size_t n);

    /// Reshapes to `rows` x `cols` and zero-fills, reusing the allocation
    /// whenever the new size fits the current capacity.
    void resize(std::size_t rows, std::size_t cols);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    std::size_t size() const noexcept { return data_.size(); }

    double& operator()(std::size_t i, std::size_t j) {
        assert(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }
    double operator()(std::size_t i, std::size_t j) const {
        assert(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }

    std::vector<double>& data() noexcept { return data_; }
    const std::vector<double>& data() const noexcept { return data_; }

    RMat& operator+=(const RMat& rhs);
    RMat& operator-=(const RMat& rhs);
    RMat& operator*=(double scalar);

    /// Induced 1-norm (max absolute column sum); picks the Pade order.
    double norm_1() const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// `out = a * b` through `simd::dgemm_raw`, counted as one `kGemmCalls`.
/// `out` must not alias `a` or `b`; it is resized (allocation-free on
/// shape reuse).  Throws `std::invalid_argument` on shape mismatch.
void gemm_into(const RMat& a, const RMat& b, RMat& out);

/// `out += a * b`.  Shapes must already agree; `out` must not alias inputs.
void gemm_acc(const RMat& a, const RMat& b, RMat& out);

/// `y += alpha * x`.
void add_scaled(RMat& y, double alpha, const RMat& x);

/// `tr(a * b)` without forming the product.
double trace_of_product(const RMat& a, const RMat& b);

}  // namespace qoc::linalg
