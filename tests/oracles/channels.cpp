#include "oracles/channels.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/kron.hpp"

namespace qoc::oracle {

namespace {
using linalg::kron;

/// Superoperator `sum_k conj(K_k) (x) K_k` of a Kraus pair.
Mat kraus_superop(const Mat& k0, const Mat& k1) {
    return kron(k0.conj(), k0) + kron(k1.conj(), k1);
}
}  // namespace

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
    return s;
}

Mat amplitude_damping_superop(double gamma) {
    if (gamma < 0.0 || gamma > 1.0) throw std::invalid_argument("amplitude_damping: bad gamma");
    const double sg = std::sqrt(gamma), s1 = std::sqrt(1.0 - gamma);
    return kraus_superop(Mat{{1.0, 0.0}, {0.0, s1}}, Mat{{0.0, sg}, {0.0, 0.0}});
}

Mat phase_damping_superop(double lambda) {
    if (lambda < 0.0 || lambda > 1.0) throw std::invalid_argument("phase_damping: bad lambda");
    const double s1 = std::sqrt(1.0 - lambda), sl = std::sqrt(lambda);
    return kraus_superop(Mat{{1.0, 0.0}, {0.0, s1}}, Mat{{0.0, 0.0}, {0.0, sl}});
}

}  // namespace qoc::oracle
