/// \file matrix.hpp
/// \brief Dense complex matrix type used throughout qoc.
///
/// Quantum-control workloads in this library manipulate small dense complex
/// matrices (Hamiltonians up to ~9x9, Liouvillian superoperators up to
/// ~81x81, Van Loan augmented blocks up to ~162x162).  A purpose-built dense
/// type with value semantics keeps the numerics transparent and dependency
/// free; throughput-critical parallelism lives at the ensemble level
/// (randomized-benchmarking sequences, parameter sweeps), not inside these
/// kernels.

#pragma once

#include <cassert>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <stdexcept>
#include <vector>

namespace qoc::linalg {

using cplx = std::complex<double>;

/// Dense row-major complex matrix with value semantics.
///
/// Invariants: `data().size() == rows() * cols()`.  A default-constructed
/// matrix is the unique 0x0 empty matrix.
class Mat {
public:
    /// Creates the empty 0x0 matrix.
    Mat() = default;

    /// Creates a `rows` x `cols` matrix of zeros.
    Mat(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, cplx{0.0, 0.0}) {}

    /// Creates a matrix from a nested brace list, e.g. `Mat{{{1,0},{0,1}}}`.
    /// Throws `std::invalid_argument` on ragged rows.
    Mat(std::initializer_list<std::initializer_list<cplx>> init);

    /// Builds a `rows` x `cols` matrix wrapping `values` (row-major).
    /// Throws `std::invalid_argument` on size mismatch.
    Mat(std::size_t rows, std::size_t cols, std::vector<cplx> values);

    /// The `n` x `n` identity.
    static Mat identity(std::size_t n);

    /// A `rows` x `cols` matrix of zeros (alias of the size constructor,
    /// kept for call-site readability).
    static Mat zeros(std::size_t rows, std::size_t cols) { return Mat(rows, cols); }

    /// Reshapes to `rows` x `cols` and zero-fills.  Reuses the existing
    /// allocation whenever the new size fits the current capacity, which is
    /// what makes the `*_into` kernels below allocation-free on reuse.
    void resize(std::size_t rows, std::size_t cols);

    /// Diagonal matrix from entries.
    static Mat diag(const std::vector<cplx>& entries);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    std::size_t size() const noexcept { return data_.size(); }
    bool empty() const noexcept { return data_.empty(); }
    bool is_square() const noexcept { return rows_ == cols_; }

    cplx& operator()(std::size_t i, std::size_t j) {
        assert(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }
    const cplx& operator()(std::size_t i, std::size_t j) const {
        assert(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }

    /// Bounds-checked access; throws `std::out_of_range`.
    cplx& at(std::size_t i, std::size_t j);
    const cplx& at(std::size_t i, std::size_t j) const;

    std::vector<cplx>& data() noexcept { return data_; }
    const std::vector<cplx>& data() const noexcept { return data_; }

    // --- in-place arithmetic -------------------------------------------------
    Mat& operator+=(const Mat& rhs);
    Mat& operator-=(const Mat& rhs);
    Mat& operator*=(cplx scalar);
    Mat& operator*=(double scalar);

    // --- structural transforms ----------------------------------------------
    /// Conjugate transpose (dagger).
    Mat adjoint() const;
    /// Plain transpose.
    Mat transpose() const;
    /// Element-wise complex conjugate.
    Mat conj() const;

    /// Sum of diagonal entries.  Requires a square matrix.
    cplx trace() const;

    /// Frobenius norm `sqrt(sum |a_ij|^2)`.
    double frobenius_norm() const;

    /// Largest entry magnitude (max norm).  Entry magnitudes are
    /// `sqrt(re^2 + im^2)`, falling back to `std::abs` (hypot) only when the
    /// sum of squares is not a finite normal number.
    double max_abs() const;

    /// Induced 1-norm (max absolute column sum); used by expm scaling.  Same
    /// entry magnitudes as `max_abs`.  Not finite when an entry is not: a
    /// NaN column sum is returned, not dropped by the max.
    double norm_1() const;

    /// True when `|a_ij - a_ji^*| <= tol` for all entries.
    bool is_hermitian(double tol = 1e-12) const;

    /// True when `A^dagger A = I` within `tol` (max-abs of the residual).
    bool is_unitary(double tol = 1e-10) const;

    /// True when all entries of `this - rhs` have magnitude <= tol.
    bool approx_equal(const Mat& rhs, double tol = 1e-12) const;

    /// Extracts the contiguous block of shape `nr` x `nc` at `(r0, c0)`.
    Mat block(std::size_t r0, std::size_t c0, std::size_t nr, std::size_t nc) const;

    /// Writes `b` into this matrix at offset `(r0, c0)`.
    void set_block(std::size_t r0, std::size_t c0, const Mat& b);

    /// Column `j` as a column vector.
    Mat col(std::size_t j) const;
    /// Row `i` as a row vector.
    Mat row(std::size_t i) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<cplx> data_;
};

// --- free arithmetic ---------------------------------------------------------
Mat operator+(Mat lhs, const Mat& rhs);
Mat operator-(Mat lhs, const Mat& rhs);
Mat operator-(const Mat& m);
Mat operator*(Mat m, cplx scalar);
Mat operator*(cplx scalar, Mat m);
Mat operator*(Mat m, double scalar);
Mat operator*(double scalar, Mat m);

/// Matrix product through `simd::gemm_raw`; throws `std::invalid_argument`
/// on shape mismatch.
Mat operator*(const Mat& a, const Mat& b);

/// `a^dagger * b` without forming the adjoint.
Mat adjoint_times(const Mat& a, const Mat& b);

// --- allocation-free kernels -------------------------------------------------
//
// The `*_into` family writes results into caller-owned matrices, resizing
// them in place (no allocation once the destination has seen the shape).
// Destinations must not alias the inputs.  These are the building blocks of
// the GRAPE evaluator workspace and the shared-Pade Frechet engine, where
// the same scratch matrices are recycled across thousands of objective
// evaluations.

/// `out = a * b` through the register-blocked `simd::gemm_raw` kernel (see
/// simd_kernels.hpp for its rounding contract).  `out` must not alias `a` or
/// `b`; it is resized (allocation-free on shape reuse).
void gemm_into(const Mat& a, const Mat& b, Mat& out);

/// `out += a * b`.  Shapes must already agree; `out` must not alias inputs.
void gemm_acc(const Mat& a, const Mat& b, Mat& out);

/// `out = a^dagger * b` without forming the adjoint.  `out` must not alias
/// `a` or `b`; it is resized (allocation-free on shape reuse).
void adjoint_times_into(const Mat& a, const Mat& b, Mat& out);

/// `y += alpha * x` (complex axpy), allocation free.
void add_scaled(Mat& y, cplx alpha, const Mat& x);

/// `y += alpha * x` for a real `alpha`: one multiply-add per interleaved
/// double.  For finite inputs this rounds exactly like the `cplx{alpha, 0}`
/// overload, without `std::complex`'s NaN-recovery multiply.  The Pade
/// polynomial sums and the GRAPE slot exponents run through it.
void add_scaled(Mat& y, double alpha, const Mat& x);

/// `tr(a * b)` in a single pass without forming the product: the O(N^2)
/// contraction sum_ij a(i,j) b(j,i), accumulated in two real sums over the
/// raw storage.  Requires a.cols() == b.rows() and a.rows() == b.cols().
cplx trace_of_product(const Mat& a, const Mat& b);

/// `tr(a^dagger * b)` (Hilbert-Schmidt inner product) without forming the product.
cplx hs_inner(const Mat& a, const Mat& b);

/// Commutator `[a, b] = ab - ba`.
Mat commutator(const Mat& a, const Mat& b);

/// Human-readable rendering (for diagnostics and examples).
std::ostream& operator<<(std::ostream& os, const Mat& m);

/// True when `a = e^{i phi} b` for some global phase, within `tol`.
bool equal_up_to_phase(const Mat& a, const Mat& b, double tol = 1e-9);

}  // namespace qoc::linalg
