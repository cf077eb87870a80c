#include "quantum/superop.hpp"

#include <cmath>
#include <stdexcept>

#include "contracts/matrix_checks.hpp"
#include "linalg/kron.hpp"
#include "obs/obs.hpp"
#include "quantum/operators.hpp"

namespace qoc::quantum {

namespace {
using linalg::cplx;
using linalg::kron;
constexpr cplx kI{0.0, 1.0};
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

Mat depolarizing_superop(std::size_t dim, double p) {
    if (p < 0.0 || p > 1.0) throw std::invalid_argument("depolarizing_superop: bad p");
    const std::size_t n2 = dim * dim;
    // rho -> (1-p) rho + p Tr(rho) I/d.  In vec form the second term is
    // (p/d) vec(I) vec(I)^T (column-stacking: Tr(rho) = vec(I)^T vec(rho)).
    Mat s = (1.0 - p) * Mat::identity(n2);
    const Mat id_vec = linalg::vec(Mat::identity(dim));
    const double w = p / static_cast<double>(dim);
    for (std::size_t i = 0; i < n2; ++i)
        for (std::size_t j = 0; j < n2; ++j)
            s(i, j) += w * id_vec(i, 0) * std::conj(id_vec(j, 0));
    contracts::check_trace_preserving(s, "depolarizing_superop");
    contracts::check_completely_positive(s, "depolarizing_superop");
    return s;
}

Mat amplitude_damping_superop(double gamma) {
    if (gamma < 0.0 || gamma > 1.0) throw std::invalid_argument("amplitude_damping: bad gamma");
    const double sg = std::sqrt(gamma), s1 = std::sqrt(1.0 - gamma);
    const Mat k0{{1.0, 0.0}, {0.0, s1}};
    const Mat k1{{0.0, sg}, {0.0, 0.0}};
    Mat s = kron(k0.conj(), k0) + kron(k1.conj(), k1);
    contracts::check_trace_preserving(s, "amplitude_damping_superop");
    contracts::check_completely_positive(s, "amplitude_damping_superop");
    return s;
}

Mat phase_damping_superop(double lambda) {
    if (lambda < 0.0 || lambda > 1.0) throw std::invalid_argument("phase_damping: bad lambda");
    const double s1 = std::sqrt(1.0 - lambda), sl = std::sqrt(lambda);
    const Mat k0{{1.0, 0.0}, {0.0, s1}};
    const Mat k1{{0.0, 0.0}, {0.0, sl}};
    Mat s = kron(k0.conj(), k0) + kron(k1.conj(), k1);
    contracts::check_trace_preserving(s, "phase_damping_superop");
    contracts::check_completely_positive(s, "phase_damping_superop");
    return s;
}

}  // namespace qoc::quantum
