#include "linalg/simd_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#define QOC_HAVE_AVX2_PATH 1
#include <immintrin.h>
#endif

namespace qoc::linalg::simd {

namespace {

bool g_force_scalar = false;

// --- scalar replay of the AVX2 lane arithmetic ------------------------------
//
// prod = fmaddsub(b, broadcast(a_re), b_swapped * broadcast(a_im)):
//   re: fma(b_re, a_re, -(a_im * b_im))
//   im: fma(b_im, a_re, +(a_im * b_re))
// then acc += prod as a separate IEEE add.  Every scalar helper below
// commits elements through this exact sequence so vector and scalar paths
// round identically.

inline void cfma(cplx& acc, const cplx a, const cplx b) noexcept {
    const double pr = std::fma(b.real(), a.real(), -(a.imag() * b.imag()));
    const double pi = std::fma(b.imag(), a.real(), a.imag() * b.real());
    acc = cplx{acc.real() + pr, acc.imag() + pi};
}

void gemm_raw_scalar(const cplx* a, const cplx* b, cplx* c, std::size_t m, std::size_t k,
                     std::size_t n, bool accumulate) noexcept {
    for (std::size_t i = 0; i < m; ++i) {
        cplx* crow = c + i * n;
        if (!accumulate) {
            for (std::size_t j = 0; j < n; ++j) crow[j] = cplx{0.0, 0.0};
        }
        const cplx* arow = a + i * k;
        for (std::size_t p = 0; p < k; ++p) {
            const cplx aip = arow[p];
            if (aip == cplx{0.0, 0.0}) continue;
            const cplx* brow = b + p * n;
            for (std::size_t j = 0; j < n; ++j) cfma(crow[j], aip, brow[j]);
        }
    }
}

void gemv_mixed_scalar(const cplx* const* a, std::size_t cols, std::size_t n,
                       const cplx* x, cplx* out, std::size_t stride) noexcept {
    for (std::size_t j = 0; j < cols; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            cplx acc{0.0, 0.0};
            const cplx* arow = a[j] + i * n;
            for (std::size_t p = 0; p < n; ++p) cfma(acc, arow[p], x[p * stride + j]);
            out[i * stride + j] = acc;
        }
    }
}

void csr_gemm_raw_scalar(const cplx* vals, const int* cols, const int* rowptr,
                         std::size_t m, const cplx* b, cplx* c, std::size_t n,
                         bool accumulate) noexcept {
    for (std::size_t i = 0; i < m; ++i) {
        cplx* crow = c + i * n;
        if (!accumulate) {
            for (std::size_t j = 0; j < n; ++j) crow[j] = cplx{0.0, 0.0};
        }
        for (int idx = rowptr[i]; idx < rowptr[i + 1]; ++idx) {
            const cplx v = vals[idx];
            const cplx* brow = b + static_cast<std::size_t>(cols[idx]) * n;
            for (std::size_t j = 0; j < n; ++j) cfma(crow[j], v, brow[j]);
        }
    }
}

// --- real kernels ------------------------------------------------------------

void dgemm_raw_scalar(const double* a, const double* b, double* c, std::size_t m,
                      std::size_t k, std::size_t n, bool accumulate) noexcept {
    for (std::size_t i = 0; i < m; ++i) {
        double* crow = c + i * n;
        if (!accumulate) {
            for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0;
        }
        const double* arow = a + i * k;
        for (std::size_t p = 0; p < k; ++p) {
            const double aip = arow[p];
            const double* brow = b + p * n;
            for (std::size_t j = 0; j < n; ++j) crow[j] = std::fma(aip, brow[j], crow[j]);
        }
    }
}

// The LU bodies are written once and compiled twice: into the portable
// functions below and, inlined, into the fma-target variants, where
// std::fma becomes vfmadd.  The correctly rounded fma makes both bitwise
// identical.

/// `y[j] = fma(-l, x[j], y[j])` over `m` entries.
[[gnu::always_inline]] inline void drow_update(double* y, const double* x, double l,
                                               std::size_t m) noexcept {
    for (std::size_t j = 0; j < m; ++j) y[j] = std::fma(-l, x[j], y[j]);
}

[[gnu::always_inline]] inline bool dlu_factor_body(double* lu, std::size_t n,
                                                   std::size_t* piv,
                                                   double* inv_diag) noexcept {
    bool regular = true;
    for (std::size_t i = 0; i < n; ++i) piv[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t p = k;
        double best = std::abs(lu[k * n + k]);
        for (std::size_t i = k + 1; i < n; ++i) {
            const double v = std::abs(lu[i * n + k]);
            if (v > best) {
                best = v;
                p = i;
            }
        }
        if (p != k) {
            for (std::size_t j = 0; j < n; ++j) std::swap(lu[k * n + j], lu[p * n + j]);
            std::swap(piv[k], piv[p]);
        }
        const double pivot = lu[k * n + k];
        if (std::abs(pivot) < 1e-300) {
            regular = false;
            continue;
        }
        const double inv = 1.0 / pivot;
        inv_diag[k] = inv;
        for (std::size_t i = k + 1; i < n; ++i) {
            const double lik = lu[i * n + k];
            if (lik == 0.0) continue;
            const double l = lik * inv;
            lu[i * n + k] = l;
            drow_update(lu + i * n + k + 1, lu + k * n + k + 1, l, n - k - 1);
        }
    }
    return regular;
}

[[gnu::always_inline]] inline void dlu_solve_body(const double* lu, const std::size_t* piv,
                                                  const double* inv_diag, std::size_t n,
                                                  const double* b, double* x,
                                                  std::size_t m) noexcept {
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < m; ++j) x[i * m + j] = b[piv[i] * m + j];
    for (std::size_t i = 1; i < n; ++i)
        for (std::size_t k = 0; k < i; ++k) {
            const double lik = lu[i * n + k];
            if (lik == 0.0) continue;
            drow_update(x + i * m, x + k * m, lik, m);
        }
    for (std::size_t ii = n; ii-- > 0;) {
        double* xi = x + ii * m;
        for (std::size_t k = ii + 1; k < n; ++k) {
            const double uik = lu[ii * n + k];
            if (uik == 0.0) continue;
            drow_update(xi, x + k * m, uik, m);
        }
        const double inv = inv_diag[ii];
        for (std::size_t j = 0; j < m; ++j) xi[j] *= inv;
    }
}

bool dlu_factor_scalar(double* lu, std::size_t n, std::size_t* piv,
                       double* inv_diag) noexcept {
    return dlu_factor_body(lu, n, piv, inv_diag);
}

void dlu_solve_scalar(const double* lu, const std::size_t* piv, const double* inv_diag,
                      std::size_t n, const double* b, double* x, std::size_t m) noexcept {
    dlu_solve_body(lu, piv, inv_diag, n, b, x, m);
}

#if defined(QOC_HAVE_AVX2_PATH)

// --- AVX2+FMA variants ------------------------------------------------------
//
// A 256-bit vector holds two interleaved complex doubles [re0 im0 re1 im1].
// The complex broadcast-multiply-accumulate is the classic fmaddsub form;
// odd tails replay the scalar sequence, which rounds identically.

/// acc += a * v for two packed complex in `v`, `a` broadcast as (ar, ai).
__attribute__((target("avx2,fma"))) inline __m256d cfma2(__m256d acc, __m256d ar, __m256d ai,
                                                         __m256d v) noexcept {
    const __m256d swapped = _mm256_permute_pd(v, 0b0101);
    return _mm256_add_pd(acc, _mm256_fmaddsub_pd(v, ar, _mm256_mul_pd(swapped, ai)));
}

// Mixed-operator column step.  Two adjacent columns (seeds) share one
// 256-bit vector: their x entries are contiguous in the row-major batch, and
// the matching operator entries a_j(i, p), a_{j+1}(i, p) come from two
// different matrices as two 128-bit halves.  `movedup` / `permute` spread
// each half into the (a_re, a_im) broadcasts of cfma2, so every lane commits
// exactly the contract's sequence.  R output rows keep independent
// accumulators across the p loop; an odd last column runs the same
// arithmetic at 128-bit width.
template <int R>
__attribute__((target("avx2,fma"))) void gemv_mixed_pair(const cplx* a0, const cplx* a1,
                                                         std::size_t n, std::size_t i0,
                                                         const cplx* x, cplx* out,
                                                         std::size_t stride) noexcept {
    __m256d acc[R];
    for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_pd();
    for (std::size_t p = 0; p < n; ++p) {
        const __m256d xv = _mm256_loadu_pd(reinterpret_cast<const double*>(x + p * stride));
        const __m256d xs = _mm256_permute_pd(xv, 0b0101);
        for (int r = 0; r < R; ++r) {
            const std::size_t e = (i0 + r) * n + p;
            const __m256d av = _mm256_insertf128_pd(
                _mm256_castpd128_pd256(_mm_loadu_pd(reinterpret_cast<const double*>(a0 + e))),
                _mm_loadu_pd(reinterpret_cast<const double*>(a1 + e)), 1);
            const __m256d ar = _mm256_movedup_pd(av);
            const __m256d ai = _mm256_permute_pd(av, 0b1111);
            acc[r] = _mm256_add_pd(acc[r], _mm256_fmaddsub_pd(xv, ar, _mm256_mul_pd(xs, ai)));
        }
    }
    for (int r = 0; r < R; ++r) {
        _mm256_storeu_pd(reinterpret_cast<double*>(out + (i0 + r) * stride), acc[r]);
    }
}

template <int R>
__attribute__((target("avx2,fma"))) void gemv_mixed_single(const cplx* a0, std::size_t n,
                                                           std::size_t i0, const cplx* x,
                                                           cplx* out,
                                                           std::size_t stride) noexcept {
    __m128d acc[R];
    for (int r = 0; r < R; ++r) acc[r] = _mm_setzero_pd();
    for (std::size_t p = 0; p < n; ++p) {
        const __m128d xv = _mm_loadu_pd(reinterpret_cast<const double*>(x + p * stride));
        const __m128d xs = _mm_permute_pd(xv, 0b01);
        for (int r = 0; r < R; ++r) {
            const __m128d av =
                _mm_loadu_pd(reinterpret_cast<const double*>(a0 + (i0 + r) * n + p));
            const __m128d ar = _mm_movedup_pd(av);
            const __m128d ai = _mm_permute_pd(av, 0b11);
            acc[r] = _mm_add_pd(acc[r], _mm_fmaddsub_pd(xv, ar, _mm_mul_pd(xs, ai)));
        }
    }
    for (int r = 0; r < R; ++r) {
        _mm_storeu_pd(reinterpret_cast<double*>(out + (i0 + r) * stride), acc[r]);
    }
}

constexpr std::size_t kMixedRows = 4;

/// Rows [i0, i0 + rows) of one column pair (a1 != nullptr) or one column.
__attribute__((target("avx2,fma"))) void gemv_mixed_rows(const cplx* a0, const cplx* a1,
                                                         std::size_t n, std::size_t i0,
                                                         std::size_t rows, const cplx* x,
                                                         cplx* out,
                                                         std::size_t stride) noexcept {
    if (a1 != nullptr) {
        switch (rows) {
            case 1: gemv_mixed_pair<1>(a0, a1, n, i0, x, out, stride); break;
            case 2: gemv_mixed_pair<2>(a0, a1, n, i0, x, out, stride); break;
            case 3: gemv_mixed_pair<3>(a0, a1, n, i0, x, out, stride); break;
            default: gemv_mixed_pair<4>(a0, a1, n, i0, x, out, stride); break;
        }
    } else {
        switch (rows) {
            case 1: gemv_mixed_single<1>(a0, n, i0, x, out, stride); break;
            case 2: gemv_mixed_single<2>(a0, n, i0, x, out, stride); break;
            case 3: gemv_mixed_single<3>(a0, n, i0, x, out, stride); break;
            default: gemv_mixed_single<4>(a0, n, i0, x, out, stride); break;
        }
    }
}

__attribute__((target("avx2,fma"))) void gemv_mixed_avx2(const cplx* const* a,
                                                         std::size_t cols, std::size_t n,
                                                         const cplx* x, cplx* out,
                                                         std::size_t stride) noexcept {
    for (std::size_t j = 0; j < cols; j += 2) {
        const cplx* a1 = j + 1 < cols ? a[j + 1] : nullptr;
        for (std::size_t i0 = 0; i0 < n; i0 += kMixedRows) {
            gemv_mixed_rows(a[j], a1, n, i0, std::min(kMixedRows, n - i0), x + j, out + j,
                            stride);
        }
    }
}

// Register-blocked inner kernel: a chunk of up to JV 256-bit accumulators
// (2 complex columns each, plus an optional odd tail column) lives in
// registers across the whole p loop, so the C row is read and written once
// per chunk instead of once per inner-product term.  Each output element
// still accumulates over ascending p through the cfma2/cfma sequence, so
// results are bitwise identical to the unblocked form.
template <int JV, bool TAIL>
__attribute__((target("avx2,fma"))) void gemm_chunk_avx2(const cplx* a, const cplx* b, cplx* c,
                                                         std::size_t m, std::size_t k,
                                                         std::size_t n, std::size_t j0,
                                                         bool accumulate) noexcept {
    for (std::size_t i = 0; i < m; ++i) {
        cplx* crow = c + i * n + j0;
        auto* cd = reinterpret_cast<double*>(crow);
        __m256d acc[JV > 0 ? JV : 1];
        cplx tacc{0.0, 0.0};
        if (accumulate) {
            for (int v = 0; v < JV; ++v) acc[v] = _mm256_loadu_pd(cd + 4 * v);
            if (TAIL) tacc = crow[2 * JV];
        } else {
            for (int v = 0; v < JV; ++v) acc[v] = _mm256_setzero_pd();
        }
        const cplx* arow = a + i * k;
        for (std::size_t p = 0; p < k; ++p) {
            const cplx aip = arow[p];
            if (aip == cplx{0.0, 0.0}) continue;
            const __m256d ar = _mm256_set1_pd(aip.real());
            const __m256d ai = _mm256_set1_pd(aip.imag());
            const auto* bd = reinterpret_cast<const double*>(b + p * n + j0);
            for (int v = 0; v < JV; ++v) {
                acc[v] = cfma2(acc[v], ar, ai, _mm256_loadu_pd(bd + 4 * v));
            }
            if (TAIL) cfma(tacc, aip, *(b + p * n + j0 + 2 * JV));
        }
        for (int v = 0; v < JV; ++v) _mm256_storeu_pd(cd + 4 * v, acc[v]);
        if (TAIL) crow[2 * JV] = tacc;
    }
}

/// Same register blocking over a CSR left operand.
template <int JV, bool TAIL>
__attribute__((target("avx2,fma"))) void csr_gemm_chunk_avx2(const cplx* vals, const int* cols,
                                                             const int* rowptr, std::size_t m,
                                                             const cplx* b, cplx* c,
                                                             std::size_t n, std::size_t j0,
                                                             bool accumulate) noexcept {
    for (std::size_t i = 0; i < m; ++i) {
        cplx* crow = c + i * n + j0;
        auto* cd = reinterpret_cast<double*>(crow);
        __m256d acc[JV > 0 ? JV : 1];
        cplx tacc{0.0, 0.0};
        if (accumulate) {
            for (int v = 0; v < JV; ++v) acc[v] = _mm256_loadu_pd(cd + 4 * v);
            if (TAIL) tacc = crow[2 * JV];
        } else {
            for (int v = 0; v < JV; ++v) acc[v] = _mm256_setzero_pd();
        }
        for (int idx = rowptr[i]; idx < rowptr[i + 1]; ++idx) {
            const cplx aval = vals[idx];
            const __m256d ar = _mm256_set1_pd(aval.real());
            const __m256d ai = _mm256_set1_pd(aval.imag());
            const cplx* brow = b + static_cast<std::size_t>(cols[idx]) * n + j0;
            const auto* bd = reinterpret_cast<const double*>(brow);
            for (int v = 0; v < JV; ++v) {
                acc[v] = cfma2(acc[v], ar, ai, _mm256_loadu_pd(bd + 4 * v));
            }
            if (TAIL) cfma(tacc, aval, brow[2 * JV]);
        }
        for (int v = 0; v < JV; ++v) _mm256_storeu_pd(cd + 4 * v, acc[v]);
        if (TAIL) crow[2 * JV] = tacc;
    }
}

/// Dispatch table over (full vectors in chunk, odd tail column).
template <bool TAIL>
__attribute__((target("avx2,fma"))) void gemm_chunk_dispatch(const cplx* a, const cplx* b,
                                                             cplx* c, std::size_t m,
                                                             std::size_t k, std::size_t n,
                                                             std::size_t j0, std::size_t jv,
                                                             bool accumulate) noexcept {
    switch (jv) {
        case 0: gemm_chunk_avx2<0, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 1: gemm_chunk_avx2<1, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 2: gemm_chunk_avx2<2, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 3: gemm_chunk_avx2<3, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 4: gemm_chunk_avx2<4, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 5: gemm_chunk_avx2<5, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 6: gemm_chunk_avx2<6, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 7: gemm_chunk_avx2<7, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        default: gemm_chunk_avx2<8, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
    }
}

template <bool TAIL>
__attribute__((target("avx2,fma"))) void csr_gemm_chunk_dispatch(
    const cplx* vals, const int* cols, const int* rowptr, std::size_t m, const cplx* b,
    cplx* c, std::size_t n, std::size_t j0, std::size_t jv, bool accumulate) noexcept {
    switch (jv) {
        case 0: csr_gemm_chunk_avx2<0, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 1: csr_gemm_chunk_avx2<1, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 2: csr_gemm_chunk_avx2<2, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 3: csr_gemm_chunk_avx2<3, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 4: csr_gemm_chunk_avx2<4, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 5: csr_gemm_chunk_avx2<5, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 6: csr_gemm_chunk_avx2<6, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 7: csr_gemm_chunk_avx2<7, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        default: csr_gemm_chunk_avx2<8, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
    }
}

constexpr std::size_t kChunkCols = 16;  // 8 vectors = 16 complex columns

__attribute__((target("avx2,fma"))) void gemm_raw_avx2(const cplx* a, const cplx* b, cplx* c,
                                                       std::size_t m, std::size_t k,
                                                       std::size_t n,
                                                       bool accumulate) noexcept {
    for (std::size_t j0 = 0; j0 < n; j0 += kChunkCols) {
        const std::size_t jn = std::min(kChunkCols, n - j0);
        const std::size_t jv = jn / 2;
        if ((jn & 1) != 0) {
            gemm_chunk_dispatch<true>(a, b, c, m, k, n, j0, jv, accumulate);
        } else {
            gemm_chunk_dispatch<false>(a, b, c, m, k, n, j0, jv, accumulate);
        }
    }
}

__attribute__((target("avx2,fma"))) void csr_gemm_raw_avx2(const cplx* vals, const int* cols,
                                                           const int* rowptr, std::size_t m,
                                                           const cplx* b, cplx* c,
                                                           std::size_t n,
                                                           bool accumulate) noexcept {
    for (std::size_t j0 = 0; j0 < n; j0 += kChunkCols) {
        const std::size_t jn = std::min(kChunkCols, n - j0);
        const std::size_t jv = jn / 2;
        if ((jn & 1) != 0) {
            csr_gemm_chunk_dispatch<true>(vals, cols, rowptr, m, b, c, n, j0, jv, accumulate);
        } else {
            csr_gemm_chunk_dispatch<false>(vals, cols, rowptr, m, b, c, n, j0, jv, accumulate);
        }
    }
}

// Real register tile: R rows x V vectors of 4 doubles, the last vector of
// every row loaded and stored through `mask` (all lanes for a full
// vector).  Each lane runs the scalar replay's fma chain over ascending p.
template <int R, int V>
[[gnu::always_inline]] __attribute__((target("avx2,fma"))) inline void dgemm_tile(
    const double* a, const double* b,
                                                    double* c, std::size_t k, std::size_t n,
                                                    std::size_t i0, std::size_t j0,
                                                    __m256i mask, bool accumulate) noexcept {
    __m256d acc[R][V];
    for (int r = 0; r < R; ++r) {
        double* crow = c + (i0 + r) * n + j0;
        for (int v = 0; v < V; ++v) {
            if (!accumulate) {
                acc[r][v] = _mm256_setzero_pd();
            } else if (v + 1 < V) {
                acc[r][v] = _mm256_loadu_pd(crow + 4 * v);
            } else {
                acc[r][v] = _mm256_maskload_pd(crow + 4 * v, mask);
            }
        }
    }
    for (std::size_t p = 0; p < k; ++p) {
        const double* brow = b + p * n + j0;
        __m256d bv[V];
        for (int v = 0; v + 1 < V; ++v) bv[v] = _mm256_loadu_pd(brow + 4 * v);
        bv[V - 1] = _mm256_maskload_pd(brow + 4 * (V - 1), mask);
        for (int r = 0; r < R; ++r) {
            const __m256d ar = _mm256_broadcast_sd(a + (i0 + r) * k + p);
            for (int v = 0; v < V; ++v) acc[r][v] = _mm256_fmadd_pd(ar, bv[v], acc[r][v]);
        }
    }
    for (int r = 0; r < R; ++r) {
        double* crow = c + (i0 + r) * n + j0;
        for (int v = 0; v + 1 < V; ++v) _mm256_storeu_pd(crow + 4 * v, acc[r][v]);
        _mm256_maskstore_pd(crow + 4 * (V - 1), mask, acc[r][V - 1]);
    }
}

template <int R>
[[gnu::always_inline]] __attribute__((target("avx2,fma"))) inline void dgemm_tile_rows(
    const double* a, const double* b,
                                                         double* c, std::size_t k,
                                                         std::size_t n, std::size_t i0,
                                                         std::size_t j0, int vecs,
                                                         __m256i mask,
                                                         bool accumulate) noexcept {
    switch (vecs) {
        case 1: dgemm_tile<R, 1>(a, b, c, k, n, i0, j0, mask, accumulate); break;
        case 2: dgemm_tile<R, 2>(a, b, c, k, n, i0, j0, mask, accumulate); break;
        default: dgemm_tile<R, 3>(a, b, c, k, n, i0, j0, mask, accumulate); break;
    }
}

constexpr std::size_t kRealTileRows = 3;
constexpr std::size_t kRealTileCols = 12;  // 3 vectors of 4 doubles

[[gnu::always_inline]] __attribute__((target("avx2,fma"))) inline void dgemm_avx2_body(
    const double* a, const double* b, double* c, std::size_t m, std::size_t k, std::size_t n,
    bool accumulate) noexcept {
    for (std::size_t j0 = 0; j0 < n; j0 += kRealTileCols) {
        const std::size_t jn = std::min(kRealTileCols, n - j0);
        const int vecs = static_cast<int>((jn + 3) / 4);
        const auto live = static_cast<long long>(jn - 4 * static_cast<std::size_t>(vecs - 1));
        const __m256i mask = _mm256_set_epi64x(live > 3 ? -1 : 0, live > 2 ? -1 : 0,
                                               live > 1 ? -1 : 0, -1);
        for (std::size_t i0 = 0; i0 < m; i0 += kRealTileRows) {
            switch (std::min(kRealTileRows, m - i0)) {
                case 1: dgemm_tile_rows<1>(a, b, c, k, n, i0, j0, vecs, mask, accumulate); break;
                case 2: dgemm_tile_rows<2>(a, b, c, k, n, i0, j0, vecs, mask, accumulate); break;
                default: dgemm_tile_rows<3>(a, b, c, k, n, i0, j0, vecs, mask, accumulate); break;
            }
        }
    }
}

// The open-system slot algebra of a transmon runs at n = d^2 = 9: a
// fixed-size copy of the real gemm and LU lets the compiler resolve the
// tiling and unroll the loops.  Same operations, same bits.
__attribute__((target("avx2,fma"))) void dgemm_raw_avx2(const double* a, const double* b,
                                                        double* c, std::size_t m,
                                                        std::size_t k, std::size_t n,
                                                        bool accumulate) noexcept {
    if (m == 9 && k == 9 && n == 9) {
        dgemm_avx2_body(a, b, c, 9, 9, 9, accumulate);
    } else {
        dgemm_avx2_body(a, b, c, m, k, n, accumulate);
    }
}

__attribute__((target("avx2,fma"))) bool dlu_factor_hw(double* lu, std::size_t n,
                                                       std::size_t* piv,
                                                       double* inv_diag) noexcept {
    if (n == 9) return dlu_factor_body(lu, 9, piv, inv_diag);
    return dlu_factor_body(lu, n, piv, inv_diag);
}

__attribute__((target("avx2,fma"))) void dlu_solve_hw(const double* lu, const std::size_t* piv,
                                                      const double* inv_diag, std::size_t n,
                                                      const double* b, double* x,
                                                      std::size_t m) noexcept {
    if (n == 9 && m == 9) {
        dlu_solve_body(lu, piv, inv_diag, 9, b, x, 9);
    } else {
        dlu_solve_body(lu, piv, inv_diag, n, b, x, m);
    }
}

bool detect_avx2() noexcept {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#else

bool detect_avx2() noexcept { return false; }

#endif  // QOC_HAVE_AVX2_PATH

bool use_avx2() noexcept {
    static const bool available = detect_avx2();
    return available && !g_force_scalar;
}

}  // namespace

bool avx2_available() noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    static const bool available = detect_avx2();
    return available;
#else
    return false;
#endif
}

void force_scalar(bool on) noexcept { g_force_scalar = on; }

void gemm_raw(const cplx* a, const cplx* b, cplx* c, std::size_t m, std::size_t k,
              std::size_t n, bool accumulate) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        gemm_raw_avx2(a, b, c, m, k, n, accumulate);
        return;
    }
#endif
    gemm_raw_scalar(a, b, c, m, k, n, accumulate);
}

void gemv_mixed(const cplx* const* a, std::size_t cols, std::size_t n, const cplx* x,
                cplx* out, std::size_t stride) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        gemv_mixed_avx2(a, cols, n, x, out, stride);
        return;
    }
#endif
    gemv_mixed_scalar(a, cols, n, x, out, stride);
}

void csr_gemm_raw(const cplx* vals, const int* cols, const int* rowptr, std::size_t m,
                  const cplx* b, cplx* c, std::size_t n, bool accumulate) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        csr_gemm_raw_avx2(vals, cols, rowptr, m, b, c, n, accumulate);
        return;
    }
#endif
    csr_gemm_raw_scalar(vals, cols, rowptr, m, b, c, n, accumulate);
}

void dgemm_raw(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        dgemm_raw_avx2(a, b, c, m, k, n, accumulate);
        return;
    }
#endif
    dgemm_raw_scalar(a, b, c, m, k, n, accumulate);
}

bool dlu_factor(double* lu, std::size_t n, std::size_t* piv, double* inv_diag) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) return dlu_factor_hw(lu, n, piv, inv_diag);
#endif
    return dlu_factor_scalar(lu, n, piv, inv_diag);
}

void dlu_solve(const double* lu, const std::size_t* piv, const double* inv_diag, std::size_t n,
               const double* b, double* x, std::size_t m) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        dlu_solve_hw(lu, piv, inv_diag, n, b, x, m);
        return;
    }
#endif
    dlu_solve_scalar(lu, piv, inv_diag, n, b, x, m);
}

}  // namespace qoc::linalg::simd
