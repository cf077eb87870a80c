#include "oracles/quantum.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/eig_hermitian.hpp"

namespace qoc::oracle {

namespace {
using linalg::cplx;
constexpr cplx kI{0.0, 1.0};
}  // namespace

double fidelity_psu(const Mat& u_target, const Mat& u) {
    if (u_target.rows() != u.rows() || u_target.cols() != u.cols()) {
        throw std::invalid_argument("fidelity_psu: shape mismatch");
    }
    const double d = static_cast<double>(u.rows());
    const cplx tr = linalg::hs_inner(u_target, u);  // Tr(U_t^dagger U)
    return std::norm(tr) / (d * d);
}

double fidelity_su(const Mat& u_target, const Mat& u) {
    const double d = static_cast<double>(u.rows());
    return linalg::hs_inner(u_target, u).real() / d;
}

double fidelity_psu_subspace(const Mat& u_target2, const Mat& u, const Mat& p) {
    if (u_target2.rows() != p.cols()) {
        throw std::invalid_argument("fidelity_psu_subspace: target/isometry mismatch");
    }
    const Mat projected = p.adjoint() * u * p;  // 2x2 block of the big unitary
    const double d = static_cast<double>(u_target2.rows());
    const cplx tr = linalg::hs_inner(u_target2, projected);
    return std::norm(tr) / (d * d);
}

double tracediff_error(const Mat& e_target, const Mat& e) {
    if (e_target.rows() != e.rows() || e_target.cols() != e.cols()) {
        throw std::invalid_argument("tracediff_error: shape mismatch");
    }
    const Mat diff = e_target - e;
    const double d2 = static_cast<double>(e.rows());
    const double fro2 = diff.frobenius_norm();
    return 0.5 * fro2 * fro2 / d2;
}

double average_gate_fidelity(const Mat& u_target, const Mat& u) {
    const double d = static_cast<double>(u.rows());
    const double tr2 = std::norm(linalg::hs_inner(u_target, u));
    return (d + tr2) / (d * (d + 1.0));
}

double state_fidelity(const Mat& rho, const Mat& ket) {
    if (ket.cols() != 1 || rho.rows() != ket.rows()) {
        throw std::invalid_argument("state_fidelity: shape mismatch");
    }
    const Mat val = ket.adjoint() * rho * ket;
    return val(0, 0).real();
}

bool is_density_matrix(const Mat& rho, double tol) {
    if (!rho.is_square() || !rho.is_hermitian(tol)) return false;
    if (std::abs(rho.trace() - cplx{1.0, 0.0}) > tol) return false;
    const auto eig = linalg::eig_hermitian(rho);
    return eig.eigenvalues.front() >= -tol;
}

double purity(const Mat& rho) { return (rho * rho).trace().real(); }

Mat cz() {
    return Mat{{1.0, 0.0, 0.0, 0.0},
               {0.0, 1.0, 0.0, 0.0},
               {0.0, 0.0, 1.0, 0.0},
               {0.0, 0.0, 0.0, -1.0}};
}

Mat iswap() {
    return Mat{{1.0, 0.0, 0.0, 0.0},
               {0.0, 0.0, kI, 0.0},
               {0.0, kI, 0.0, 0.0},
               {0.0, 0.0, 0.0, 1.0}};
}

}  // namespace qoc::oracle
