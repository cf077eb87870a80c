/// \file lu.hpp
/// \brief LU decomposition with partial pivoting for complex and real dense
///        matrices.

#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/real_matrix.hpp"

namespace qoc::linalg {

/// LU factorization `P A = L U` of a square complex matrix with partial
/// (row) pivoting.  L has unit diagonal and is stored, together with U, in
/// the packed factor matrix.
///
/// Arithmetic rules (the Pade engine runs one factor and 1 + #directions
/// solves per slot, at n <= 16, so the scalar overhead is the cost):
/// - the pivot of column k is the largest `|re| + |im|` at/below the
///   diagonal, as LAPACK's izamax picks it; ties keep the upper row;
/// - a pivot with `std::abs(pivot) < 1e-300` (one hypot per column) marks
///   the matrix singular;
/// - each pivot costs one complex division, its reciprocal; multipliers and
///   the back substitution's diagonal step multiply by it;
/// - row updates are written out in real arithmetic over the interleaved
///   doubles.  They do not route through `linalg::simd`: at these sizes
///   the per-row dispatch cost more than the vector lanes saved.
class Lu {
public:
    /// Creates an empty factorization; call `factor` before use.
    Lu() = default;

    /// Factorizes `a`.  Throws `std::invalid_argument` for non-square input.
    explicit Lu(const Mat& a);

    /// (Re)factorizes `a`, reusing the internal storage of any previous
    /// factorization of the same size (allocation-free on reuse).  This is
    /// what lets the shared-Pade Frechet engine refactor `V - U` once per
    /// slot without churning the heap.
    void factor(const Mat& a);

    /// True once `factor` (or the factorizing constructor) has run.
    bool factored() const noexcept { return !lu_.empty(); }

    /// True when a pivot underflowed (matrix numerically singular).
    bool singular() const noexcept { return singular_; }

    /// Determinant of the original matrix (0 when singular() is true is not
    /// forced; the product of pivots is returned as computed).
    cplx det() const;

    /// Solves `A x = b` for one or more right-hand sides (columns of b).
    /// Throws `std::runtime_error` when the factorization is singular.
    Mat solve(const Mat& b) const;

    /// Solves `A x = b` into a caller-owned matrix (allocation-free on shape
    /// reuse).  `x` must not alias `b`.  Division-free: the diagonal step
    /// multiplies by the reciprocal pivots `factor` kept.
    void solve_into(const Mat& b, Mat& x) const;

    /// Inverse of the original matrix.
    Mat inverse() const;

private:
    Mat lu_;                       // packed L (unit diag, below) and U (on/above)
    std::vector<std::size_t> piv_; // row permutation
    std::vector<cplx> inv_diag_;   // 1 / U(k, k), read by solve_into
    int pivot_sign_ = 1;
    bool singular_ = false;
};

/// LU factorization `P A = L U` of a square real matrix, the denominator
/// solve of the real Pade engine.  Factor and substitutions run in
/// `simd::dlu_factor` / `simd::dlu_solve` (see simd_kernels.hpp for the
/// pivot rule and the fma row updates).  Same calling pattern as `Lu`:
/// refactoring a same-size matrix and `solve_into` on a same-shape
/// destination allocate nothing.
class RLu {
public:
    /// (Re)factorizes `a`.  Throws `std::invalid_argument` for non-square input.
    void factor(const RMat& a);

    /// True when a pivot underflowed (matrix numerically singular).
    bool singular() const noexcept { return singular_; }

    /// Solves `A x = b` into `x` (resized; must not alias `b`).  Throws
    /// `std::runtime_error` when the factorization is singular.
    void solve_into(const RMat& b, RMat& x) const;

private:
    RMat lu_;
    std::vector<std::size_t> piv_;
    std::vector<double> inv_diag_;
    bool singular_ = false;
};

/// Convenience wrapper: solves `A x = b`.
Mat solve(const Mat& a, const Mat& b);

/// Convenience wrapper: matrix inverse.
Mat inverse(const Mat& a);

/// Convenience wrapper: determinant.
cplx det(const Mat& a);

}  // namespace qoc::linalg
