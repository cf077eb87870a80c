#include "quantum/superop.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "contracts/matrix_checks.hpp"
#include "linalg/kron.hpp"
#include "obs/obs.hpp"
#include "quantum/operators.hpp"

namespace qoc::quantum {

namespace {
using linalg::cplx;
using linalg::kron;
constexpr cplx kI{0.0, 1.0};

/// Largest |Im| of V^dag X V allowed, relative to ||X||_max: roundoff of the
/// four-term basis sums, far below any physical non-Hermiticity.
constexpr double kRealBasisTol = 1e-12;
}  // namespace

Mat liouvillian_hamiltonian(const Mat& h) {
    if (!h.is_square()) throw std::invalid_argument("liouvillian_hamiltonian: non-square");
    contracts::check_hermitian(h, "liouvillian_hamiltonian: H");
    const std::size_t n = h.rows();
    const Mat ident = Mat::identity(n);
    // vec(-i(H rho - rho H)) = -i (I (x) H - H^T (x) I) vec(rho)
    return (-kI) * (kron(ident, h) - kron(h.transpose(), ident));
}

Mat lindblad_dissipator(const Mat& c) {
    if (!c.is_square()) throw std::invalid_argument("lindblad_dissipator: non-square");
    const std::size_t n = c.rows();
    const Mat ident = Mat::identity(n);
    const Mat cdc = c.adjoint() * c;
    // vec(C rho C^dagger) = (conj(C) (x) C) vec(rho)
    return kron(c.conj(), c) - 0.5 * kron(ident, cdc) - 0.5 * kron(cdc.transpose(), ident);
}

Mat liouvillian(const Mat& h, const std::vector<Mat>& collapse_ops) {
    Mat l = liouvillian_hamiltonian(h);
    for (const Mat& c : collapse_ops) l += lindblad_dissipator(c);
    // Generator-level trace preservation (Eq. 1): d/dt Tr rho = 0.
    contracts::check_trace_annihilating(l, "liouvillian: L");
    return l;
}

Mat unitary_superop(const Mat& u) {
    if (!u.is_square()) throw std::invalid_argument("unitary_superop: non-square");
    contracts::check_unitary(u, "unitary_superop: U");
    return kron(u.conj(), u);
}

Mat apply_superop(const Mat& superop, const Mat& rho) {
    const std::size_t n = rho.rows();
    if (superop.rows() != n * n || superop.cols() != n * n) {
        throw std::invalid_argument("apply_superop: dimension mismatch");
    }
    return linalg::unvec(superop * linalg::vec(rho), n);
}

bool is_trace_preserving(const Mat& superop, double tol) {
    const std::size_t n2 = superop.rows();
    const auto n = static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(n2))));
    if (n * n != n2) return false;
    const Mat id_vec = linalg::vec(Mat::identity(n));
    const Mat lhs = superop.adjoint() * id_vec;  // rows of S contracted with vec(I)
    return (lhs - id_vec).max_abs() <= tol;
}

Mat hermitian_basis(std::size_t d) {
    const std::size_t n = d * d;
    const double h = 1.0 / std::sqrt(2.0);
    Mat v(n, n);
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            const std::size_t col = i + j * d;
            const std::size_t ij = i + j * d, ji = j + i * d;
            if (i == j) {
                v(ij, col) = 1.0;
            } else if (i < j) {
                v(ij, col) = h;
                v(ji, col) = h;
            } else {
                v(ij, col) = cplx{0.0, h};
                v(ji, col) = cplx{0.0, -h};
            }
        }
    }
    return v;
}

linalg::RMat to_hermitian_basis(const Mat& basis, const Mat& x, std::string_view who,
                                std::string_view what) {
    const Mat y = basis.adjoint() * x * basis;
    const double tol = kRealBasisTol * x.max_abs();
    linalg::RMat out(y.rows(), y.cols());
    for (std::size_t i = 0; i < y.rows(); ++i) {
        for (std::size_t j = 0; j < y.cols(); ++j) {
            const cplx v = y(i, j);
            if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
                throw std::invalid_argument(std::string(who) + ": non-finite " +
                                            std::string(what));
            }
            if (std::abs(v.imag()) > tol) {
                throw std::invalid_argument(std::string(who) + ": " + std::string(what) +
                                            " does not preserve Hermiticity");
            }
            out(i, j) = v.real();
        }
    }
    return out;
}

Mat from_hermitian_basis(const Mat& basis, const linalg::RMat& r) {
    Mat rc(r.rows(), r.cols());
    for (std::size_t i = 0; i < r.size(); ++i) rc.data()[i] = r.data()[i];
    return basis * rc * basis.adjoint();
}

}  // namespace qoc::quantum
