/// \file simd_kernels.hpp
/// \brief Runtime-dispatched SIMD complex kernels.
///
/// This is the single kernel family behind every dense complex product:
/// `linalg::gemm_into`/`gemm_acc`/`operator*` (and so the expm/Frechet
/// engine's products), the structured superoperator applies and the
/// batched RB seed propagation all run through it.  The LU factor and
/// substitutions do not: their row updates are a few complex entries long
/// at the engine's sizes (n <= 16), where a per-row dispatch into this
/// family cost more than it saved, so `Lu` writes them out in real
/// arithmetic itself (see lu.hpp).
///
/// Determinism contract: for every output element the accumulation runs
/// over ascending inner index `p`, and each partial product is committed as
///
///     prod_re = fma(b_re, a_re, -(a_im * b_im))
///     prod_im = fma(b_im, a_re, +(a_im * b_re))
///     acc    += prod                      (separate IEEE add)
///
/// -- exactly the lane arithmetic of the AVX2 `fmaddsub` path.  The scalar
/// fallback replays the identical sequence through `std::fma`, so results
/// are bitwise independent of vector width, batch size and CPU: an element
/// computed inside a 256-bit lane, in the unrolled tail, or on a non-AVX2
/// machine rounds identically.  That is what makes batched-vs-scalar RB
/// seed propagation and 1-vs-N-thread runs bit-identical by construction.
///
/// Dispatch: resolved once per process from CPUID (AVX2+FMA), overridable
/// for tests via `force_scalar`.
///
/// The real kernels (`dgemm_raw`, `dlu_factor`, `dlu_solve`) back `RMat`
/// and `RLu`, the real-arithmetic Pade engine of open-system GRAPE.  Their
/// contract is the real analogue: every product term is committed as one
/// `acc = fma(a, b, acc)` over ascending inner index, on both paths.

#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace qoc::linalg::simd {

/// True when the AVX2+FMA code paths are compiled in AND the CPU supports
/// them (always false on non-x86 builds).
bool avx2_available() noexcept;

/// Test hook: forces the scalar replay path (true) or restores CPU
/// dispatch (false).  Results must be bitwise identical either way; the
/// oracle tests assert exactly that.  Not thread-safe: flip only around
/// single-threaded test regions.
void force_scalar(bool on) noexcept;

// --- raw-pointer kernels (row-major complex, contiguous) --------------------

/// `c = a * b` (accumulate: `c += a * b`) for row-major `m x k` times
/// `k x n`.  `c` must not alias `a` or `b`.
void gemm_raw(const cplx* a, const cplx* b, cplx* c, std::size_t m, std::size_t k,
              std::size_t n, bool accumulate) noexcept;

/// Mixed-operator step over `cols` adjacent columns of a row-major batch
/// whose rows are `stride` elements apart: column j advances by its own
/// row-major `n x n` operator,
///
///     out[i*stride + j] = sum_p a[j][i*n + p] * x[p*stride + j].
///
/// This is the RB seed engine's step when the seeds of a block drew
/// different Cliffords.  Each element sums over ascending p through the
/// contract's commit, so it rounds like every other kernel here.  Unlike
/// `gemm_raw` it does not skip zero entries; for finite `x` that changes no
/// bit (a zero entry's product is +-0, and an accumulator that starts at +0
/// never becomes -0 under round-to-nearest), so the result equals the
/// zero-skipping dense and CSR paths bitwise.  `out` must not alias `x`.
void gemv_mixed(const cplx* const* a, std::size_t cols, std::size_t n, const cplx* x,
                cplx* out, std::size_t stride) noexcept;

/// Batched CSR apply: `c = S * b` for a CSR `m x k` superop against a
/// row-major dense `k x n` batch (one RB seed per column).  Vectorizes over
/// the contiguous batch dimension with one broadcast per stored nonzero.
void csr_gemm_raw(const cplx* vals, const int* cols, const int* rowptr, std::size_t m,
                  const cplx* b, cplx* c, std::size_t n, bool accumulate) noexcept;

// --- real kernels (row-major double, contiguous) ----------------------------

/// `c = a * b` (accumulate: `c += a * b`) for row-major `m x k` times
/// `k x n`: every element runs `c_ij = fma(a_ip, b_pj, c_ij)` over
/// ascending p, starting from +0 (or c_ij when accumulating).  Zero entries
/// are not skipped.  The AVX2 path keeps a tile of up to 3 rows x 12
/// columns in registers (the last vector of a row masked), which changes
/// no bit.  `c` must not alias `a` or `b`.
void dgemm_raw(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate) noexcept;

/// In-place LU with partial pivoting of the row-major `n x n` matrix `lu`:
/// packed unit-lower L and U on return, `piv` the row permutation and
/// `inv_diag[k] = 1 / U(k, k)`.  The pivot of column k is the largest
/// `|a_ik|` at/below the diagonal (ties keep the upper row).  Multipliers
/// are `a_ik * inv_diag[k]`; row updates run `a_ij = fma(-l_ik, u_kj, a_ij)`.
/// Returns false when a pivot magnitude is below 1e-300 (singular).
bool dlu_factor(double* lu, std::size_t n, std::size_t* piv, double* inv_diag) noexcept;

/// Solves `A x = b` for the `n x m` row-major `b` against the factors of
/// `dlu_factor`: permute, unit-lower forward and upper back substitution
/// with the same fma row update, the diagonal step multiplying by
/// `inv_diag`.  `x` must not alias `b`.
void dlu_solve(const double* lu, const std::size_t* piv, const double* inv_diag, std::size_t n,
               const double* b, double* x, std::size_t m) noexcept;

}  // namespace qoc::linalg::simd
