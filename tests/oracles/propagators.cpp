#include "oracles/propagators.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/eig_hermitian.hpp"
#include "linalg/expm.hpp"

namespace qoc::oracle {

namespace {
using linalg::cplx;
}  // namespace

std::pair<Mat, Mat> expm_frechet(const Mat& a, const Mat& e) {
    if (!a.is_square() || a.rows() != e.rows() || a.cols() != e.cols()) {
        throw std::invalid_argument("expm_frechet: shape mismatch");
    }
    const std::size_t n = a.rows();
    Mat aug(2 * n, 2 * n);
    aug.set_block(0, 0, a);
    aug.set_block(0, n, e);
    aug.set_block(n, n, a);
    const Mat big = linalg::expm(aug);
    return {big.block(0, 0, n, n), big.block(0, n, n, n)};
}

std::pair<Mat, Mat> expm_frechet_spectral(const Mat& h, const Mat& e) {
    const linalg::EigH eig = linalg::eig_hermitian(h);
    const Mat& v = eig.eigenvectors;
    const std::vector<double>& lam = eig.eigenvalues;
    const std::size_t n = h.rows();
    Mat phases(n, n);
    Mat g = v.adjoint() * e * v;
    for (std::size_t k = 0; k < n; ++k) {
        phases(k, k) = cplx{std::cos(lam[k]), -std::sin(lam[k])};
        for (std::size_t l = 0; l < n; ++l) {
            const double half_diff = 0.5 * (lam[k] - lam[l]);
            const double mid = 0.5 * (lam[k] + lam[l]);
            const double sinc = (std::abs(half_diff) < 1e-9)
                                    ? 1.0 - half_diff * half_diff / 6.0
                                    : std::sin(half_diff) / half_diff;
            g(k, l) *= cplx{std::cos(mid), -std::sin(mid)} * sinc;
        }
    }
    return {v * phases * v.adjoint(), v * g * v.adjoint()};
}

Mat expm_hermitian(const Mat& h, double t) {
    const linalg::EigH e = linalg::eig_hermitian(h);
    const std::size_t n = h.rows();
    Mat d(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const double phi = -e.eigenvalues[i] * t;
        d(i, i) = cplx{std::cos(phi), std::sin(phi)};
    }
    return e.eigenvectors * d * e.eigenvectors.adjoint();
}

Mat hermitian_function(const Mat& a, double (*f)(double)) {
    const linalg::EigH e = linalg::eig_hermitian(a);
    const std::size_t n = a.rows();
    Mat d(n, n);
    for (std::size_t i = 0; i < n; ++i) d(i, i) = cplx{f(e.eigenvalues[i]), 0.0};
    return e.eigenvectors * d * e.eigenvectors.adjoint();
}

std::vector<Mat> pwc_unitary_propagators(const Mat& drift, const std::vector<Mat>& ctrls,
                                         const std::vector<std::vector<double>>& amps,
                                         double dt) {
    std::vector<Mat> props;
    props.reserve(amps.size());
    for (const auto& slot : amps) {
        if (slot.size() != ctrls.size()) {
            throw std::invalid_argument("pwc_unitary_propagators: amplitude count mismatch");
        }
        Mat h = drift;
        for (std::size_t j = 0; j < ctrls.size(); ++j) h += slot[j] * ctrls[j];
        props.push_back(expm_hermitian(h, dt));
    }
    return props;
}

Mat chain_product(const std::vector<Mat>& props) {
    if (props.empty()) throw std::invalid_argument("chain_product: empty chain");
    Mat total = props.front();
    for (std::size_t k = 1; k < props.size(); ++k) total = props[k] * total;
    return total;
}

}  // namespace qoc::oracle
