#include "linalg/eig_hermitian.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace qoc::linalg {

namespace {

/// Sum of squared magnitudes of strictly-off-diagonal entries.
double off_norm2(const Mat& a) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            if (i != j) s += std::norm(a(i, j));
    return s;
}

/// Cyclic Jacobi sweeps: diagonalizes `w` in place while accumulating the
/// rotations into `v` (which must start as the identity), so on return
/// `a = v diag(w) v^dagger`.
void jacobi_diagonalize(Mat& w, Mat& v) {
    const std::size_t n = w.rows();
    const double scale = std::max(1.0, w.frobenius_norm());
    const double tol2 = std::pow(1e-14 * scale, 2) * static_cast<double>(n * n);
    const int max_sweeps = 60;

    for (int sweep = 0; sweep < max_sweeps && off_norm2(w) > tol2; ++sweep) {
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const cplx apq = w(p, q);
                const double mag = std::abs(apq);
                if (mag < 1e-300) continue;

                // Complex Jacobi rotation zeroing w(p,q).  Factor the phase
                // out with P = diag(1, e^{-i phi}), phi = arg(apq), reducing
                // the 2x2 block to a real symmetric one, then apply the
                // classic real rotation R; the combined unitary is
                //   G(p,p)=c, G(p,q)=s, G(q,p)=-s e^{-i phi}, G(q,q)=c e^{-i phi}.
                const double app = w(p, p).real();
                const double aqq = w(q, q).real();
                const double tau = (aqq - app) / (2.0 * mag);
                const double t = (tau >= 0.0)
                                     ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                                     : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = t * c;
                const cplx eip = apq / mag;  // e^{i phi}

                // Row/column update: w <- G^dagger w G ; v <- v G.
                for (std::size_t k = 0; k < n; ++k) {
                    const cplx wkp = w(k, p);
                    const cplx wkq = w(k, q);
                    w(k, p) = c * wkp - s * std::conj(eip) * wkq;
                    w(k, q) = s * wkp + c * std::conj(eip) * wkq;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const cplx wpk = w(p, k);
                    const cplx wqk = w(q, k);
                    w(p, k) = c * wpk - s * eip * wqk;
                    w(q, k) = s * wpk + c * eip * wqk;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const cplx vkp = v(k, p);
                    const cplx vkq = v(k, q);
                    v(k, p) = c * vkp - s * std::conj(eip) * vkq;
                    v(k, q) = s * vkp + c * std::conj(eip) * vkq;
                }
            }
        }
    }
}

}  // namespace

EigH eig_hermitian(const Mat& a, double herm_tol) {
    if (!a.is_square()) throw std::invalid_argument("eig_hermitian: non-square");
    if (!a.is_hermitian(herm_tol * std::max(1.0, a.max_abs()))) {
        throw std::invalid_argument("eig_hermitian: matrix is not Hermitian");
    }
    const std::size_t n = a.rows();
    Mat w = a;
    Mat v = Mat::identity(n);
    jacobi_diagonalize(w, v);

    // Collect and sort ascending.
    std::vector<double> evals(n);
    for (std::size_t i = 0; i < n; ++i) evals[i] = w(i, i).real();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return evals[x] < evals[y]; });

    EigH out;
    out.eigenvalues.resize(n);
    out.eigenvectors = Mat(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        out.eigenvalues[j] = evals[order[j]];
        for (std::size_t i = 0; i < n; ++i) out.eigenvectors(i, j) = v(i, order[j]);
    }
    return out;
}

}  // namespace qoc::linalg
