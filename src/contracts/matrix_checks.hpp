/// \file matrix_checks.hpp
/// \brief Matrix-valued contract checks: Hermiticity, unitarity, CPTP
///        structure, density-operator sanity.
///
/// Split from contracts.hpp so the core macro stays dependency-free; this
/// header pulls in `linalg`.  All helpers follow the contracts.hpp gating
/// rules: empty inline functions when `QOC_CONTRACTS_ENABLED` is not
/// defined, one relaxed load + branch when compiled in but disarmed.
///
/// Tolerances are *scaled absolute*: a check with tolerance `tol` accepts
/// residuals up to `tol * max(1, |A|_max)`, so Hamiltonians with entries of
/// order 2*pi*5 GHz and dimensionless gate targets are judged on equal
/// footing.

#pragma once

#include <algorithm>
#include <limits>
#include <string>

#include "contracts/contracts.hpp"
#include "linalg/eig_hermitian.hpp"
#include "linalg/kron.hpp"
#include "linalg/matrix.hpp"

namespace qoc::contracts {

#if defined(QOC_CONTRACTS_ENABLED)

namespace detail {

inline double scaled_tol(const linalg::Mat& m, double tol) {
    return tol * std::max(1.0, m.max_abs());
}

/// Max-abs of `A - A^dagger` without forming the adjoint.
inline double hermiticity_residual(const linalg::Mat& m) {
    double worst = 0.0;
    for (std::size_t i = 0; i < m.rows(); ++i) {
        for (std::size_t j = i; j < m.cols(); ++j) {
            worst = std::max(worst, std::abs(m(i, j) - std::conj(m(j, i))));
        }
    }
    return worst;
}

/// Max-abs of `A^dagger A - I`.
inline double unitarity_residual(const linalg::Mat& m) {
    double worst = 0.0;
    for (std::size_t i = 0; i < m.cols(); ++i) {
        for (std::size_t j = 0; j < m.cols(); ++j) {
            linalg::cplx acc{0.0, 0.0};
            for (std::size_t k = 0; k < m.rows(); ++k) acc += std::conj(m(k, i)) * m(k, j);
            if (i == j) acc -= 1.0;
            worst = std::max(worst, std::abs(acc));
        }
    }
    return worst;
}

/// Max-abs of `vec(I)^T S - target_row` where `target_row` is `vec(I)^T`
/// (trace preservation, propagators) or `0` (trace annihilation,
/// generators).  `S` must be d^2 x d^2.
inline double trace_row_residual(const linalg::Mat& s, bool preserving) {
    const std::size_t n2 = s.rows();
    std::size_t d = 0;
    while (d * d < n2) ++d;
    if (d * d != n2) return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    // vec(I) under column stacking has ones at indices i + d*i = i*(d+1).
    for (std::size_t col = 0; col < n2; ++col) {
        linalg::cplx acc{0.0, 0.0};
        for (std::size_t i = 0; i < d; ++i) acc += s(i * (d + 1), col);
        if (preserving && col % (d + 1) == 0) acc -= 1.0;
        worst = std::max(worst, std::abs(acc));
    }
    return worst;
}

/// Choi matrix of a superoperator under the column-stacking convention
/// `vec(A X B) = (B^T (x) A) vec(X)`:
/// `C[(i,r),(j,s)] = S[(r,s),(i,j)] = E(|i><j|)_{rs}` (unnormalized).
inline linalg::Mat choi_of_superop(const linalg::Mat& s) {
    const std::size_t n2 = s.rows();
    std::size_t d = 0;
    while (d * d < n2) ++d;
    linalg::Mat choi(n2, n2);
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t r = 0; r < d; ++r) {
            for (std::size_t j = 0; j < d; ++j) {
                for (std::size_t sx = 0; sx < d; ++sx) {
                    choi(i * d + r, j * d + sx) = s(r + d * sx, i + d * j);
                }
            }
        }
    }
    return choi;
}

}  // namespace detail

/// `m` must be Hermitian within `tol * max(1, |m|_max)` -- Hamiltonians
/// entering propagators, density operators.
inline void check_hermitian(const linalg::Mat& m, const char* what, double tol = 1e-9) {
    if (!enabled()) return;
    QOC_CONTRACT(m.is_square(), std::string(what) + ": matrix is not square");
    const double resid = detail::hermiticity_residual(m);
    QOC_CONTRACT(resid <= detail::scaled_tol(m, tol),
                 std::string(what) + ": not Hermitian (|A - A^dag|_max = " +
                     std::to_string(resid) + ")");
}

/// `u` must be unitary within `tol` -- gate targets, Clifford elements,
/// closed-system propagators.
inline void check_unitary(const linalg::Mat& u, const char* what, double tol = 1e-9) {
    if (!enabled()) return;
    QOC_CONTRACT(u.is_square(), std::string(what) + ": matrix is not square");
    const double resid = detail::unitarity_residual(u);
    QOC_CONTRACT(resid <= tol, std::string(what) + ": not unitary (|U^dag U - I|_max = " +
                                   std::to_string(resid) + ")");
}

/// `psi` must be a normalized column vector within `tol`.
inline void check_normalized_ket(const linalg::Mat& psi, const char* what, double tol = 1e-9) {
    if (!enabled()) return;
    QOC_CONTRACT(psi.cols() == 1, std::string(what) + ": not a column vector");
    const double norm = psi.frobenius_norm();
    QOC_CONTRACT(std::abs(norm - 1.0) <= tol,
                 std::string(what) + ": ket norm " + std::to_string(norm) + " != 1");
}

/// Superoperator `s` must preserve trace: `vec(I)^T S = vec(I)^T` within
/// `tol * max(1, |S|_max)` -- Lindblad propagators, channel constructions.
inline void check_trace_preserving(const linalg::Mat& s, const char* what, double tol = 1e-9) {
    if (!enabled()) return;
    QOC_CONTRACT(s.is_square(), std::string(what) + ": superoperator is not square");
    const double resid = detail::trace_row_residual(s, /*preserving=*/true);
    QOC_CONTRACT(resid <= detail::scaled_tol(s, tol),
                 std::string(what) + ": not trace preserving (|vec(I)^T S - vec(I)^T|_max = " +
                     std::to_string(resid) + ")");
}

/// Generator `l` must annihilate the trace row: `vec(I)^T L = 0` within
/// `tol * max(1, |L|_max)` -- Liouvillians and dissipators (d/dt Tr rho = 0,
/// the differential form of Eq. 1's trace preservation).
inline void check_trace_annihilating(const linalg::Mat& l, const char* what, double tol = 1e-9) {
    if (!enabled()) return;
    QOC_CONTRACT(l.is_square(), std::string(what) + ": generator is not square");
    const double resid = detail::trace_row_residual(l, /*preserving=*/false);
    QOC_CONTRACT(resid <= detail::scaled_tol(l, tol),
                 std::string(what) + ": trace row not annihilated (|vec(I)^T L|_max = " +
                     std::to_string(resid) + ")");
}

/// Superoperator `s` must be completely positive: its Choi matrix is
/// Hermitian with eigenvalues >= `-tol * max(1, |S|_max)`.  O(d^6): reserve
/// for channel constructors and test assertions, not propagation loops.
inline void check_completely_positive(const linalg::Mat& s, const char* what, double tol = 1e-7) {
    if (!enabled()) return;
    QOC_CONTRACT(s.is_square(), std::string(what) + ": superoperator is not square");
    const linalg::Mat choi = detail::choi_of_superop(s);
    const double herm = detail::hermiticity_residual(choi);
    QOC_CONTRACT(herm <= detail::scaled_tol(s, tol),
                 std::string(what) + ": Choi matrix not Hermitian (residual " +
                     std::to_string(herm) + "); map is not Hermiticity-preserving");
    const linalg::EigH eig = linalg::eig_hermitian(choi, detail::scaled_tol(s, tol));
    const double min_eig = eig.eigenvalues.empty() ? 0.0 : eig.eigenvalues.front();
    QOC_CONTRACT(min_eig >= -detail::scaled_tol(s, tol),
                 std::string(what) + ": Choi matrix has negative eigenvalue " +
                     std::to_string(min_eig) + "; map is not completely positive");
}

/// A vectorized density operator `vec_rho` (d^2 x 1 column) must unvec to a
/// Hermitian matrix of unit trace within `tol` -- the state propagated by
/// the RB seed-block engine.
inline void check_density_vec(const linalg::Mat& vec_rho, const char* what, double tol = 1e-6) {
    if (!enabled()) return;
    QOC_CONTRACT(vec_rho.cols() == 1, std::string(what) + ": not a column vector");
    const std::size_t n2 = vec_rho.rows();
    std::size_t d = 0;
    while (d * d < n2) ++d;
    QOC_CONTRACT(d * d == n2, std::string(what) + ": length is not a perfect square");
    // Trace: sum of diagonal entries vec[i*(d+1)].
    linalg::cplx tr{0.0, 0.0};
    for (std::size_t i = 0; i < d; ++i) tr += vec_rho(i * (d + 1), 0);
    QOC_CONTRACT(std::abs(tr - linalg::cplx{1.0, 0.0}) <= tol,
                 std::string(what) + ": trace " + std::to_string(tr.real()) + " + " +
                     std::to_string(tr.imag()) + "i drifted from 1");
    // Hermiticity of the unvec'd matrix: rho(i,j) = vec[i + d*j].
    double worst = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = i; j < d; ++j) {
            worst = std::max(worst,
                             std::abs(vec_rho(i + d * j, 0) - std::conj(vec_rho(j + d * i, 0))));
        }
    }
    QOC_CONTRACT(worst <= tol, std::string(what) + ": unvec'd state not Hermitian (residual " +
                                   std::to_string(worst) + ")");
}

/// Every entry of `m` must be finite -- propagators, gradient matrices.
inline void check_all_finite(const linalg::Mat& m, const char* what) {
    if (!enabled()) return;
    for (std::size_t i = 0; i < m.rows(); ++i) {
        for (std::size_t j = 0; j < m.cols(); ++j) {
            QOC_CONTRACT(std::isfinite(m(i, j).real()) && std::isfinite(m(i, j).imag()),
                         std::string(what) + ": non-finite entry at (" + std::to_string(i) +
                             ", " + std::to_string(j) + ")");
        }
    }
}

#else  // !QOC_CONTRACTS_ENABLED

inline void check_hermitian(const linalg::Mat&, const char*, double = 1e-9) {}
inline void check_unitary(const linalg::Mat&, const char*, double = 1e-9) {}
inline void check_normalized_ket(const linalg::Mat&, const char*, double = 1e-9) {}
inline void check_trace_preserving(const linalg::Mat&, const char*, double = 1e-9) {}
inline void check_trace_annihilating(const linalg::Mat&, const char*, double = 1e-9) {}
inline void check_trace_preserving_action(const linalg::Mat&, const char*, double = 1e-9) {}
inline void check_trace_annihilating_action(const linalg::Mat&, const char*, double = 1e-9) {}
inline void check_completely_positive(const linalg::Mat&, const char*, double = 1e-7) {}
inline void check_density_vec(const linalg::Mat&, const char*, double = 1e-6) {}
inline void check_all_finite(const linalg::Mat&, const char*) {}

#endif  // QOC_CONTRACTS_ENABLED

}  // namespace qoc::contracts
