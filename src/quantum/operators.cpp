#include "quantum/operators.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/kron.hpp"

namespace qoc::quantum {

namespace {
constexpr cplx kI{0.0, 1.0};
}

Mat sigma_x() { return Mat{{0.0, 1.0}, {1.0, 0.0}}; }
Mat sigma_y() { return Mat{{0.0, -kI}, {kI, 0.0}}; }
Mat sigma_z() { return Mat{{1.0, 0.0}, {0.0, -1.0}}; }
Mat sigma_plus() { return Mat{{0.0, 0.0}, {1.0, 0.0}}; }
Mat sigma_minus() { return Mat{{0.0, 1.0}, {0.0, 0.0}}; }

Mat annihilation(std::size_t dim) {
    if (dim < 2) throw std::invalid_argument("annihilation: dim must be >= 2");
    Mat a(dim, dim);
    for (std::size_t n = 1; n < dim; ++n) {
        a(n - 1, n) = cplx{std::sqrt(static_cast<double>(n)), 0.0};
    }
    return a;
}

Mat creation(std::size_t dim) { return annihilation(dim).adjoint(); }

Mat number_op(std::size_t dim) {
    Mat n(dim, dim);
    for (std::size_t k = 0; k < dim; ++k) n(k, k) = cplx{static_cast<double>(k), 0.0};
    return n;
}

Mat duffing_drift(std::size_t dim, double delta, double anharmonicity) {
    Mat h(dim, dim);
    for (std::size_t k = 0; k < dim; ++k) {
        const double n = static_cast<double>(k);
        h(k, k) = cplx{delta * n + 0.5 * anharmonicity * n * (n - 1.0), 0.0};
    }
    return h;
}

Mat drive_x(std::size_t dim) { return annihilation(dim) + creation(dim); }

Mat drive_y(std::size_t dim) {
    return kI * (creation(dim) - annihilation(dim));
}

Mat op_on_qubit(const Mat& op, std::size_t target, std::size_t n_qubits) {
    if (target >= n_qubits) throw std::invalid_argument("op_on_qubit: target out of range");
    std::vector<Mat> factors;
    factors.reserve(n_qubits);
    for (std::size_t q = 0; q < n_qubits; ++q) {
        factors.push_back(q == target ? op : Mat::identity(op.rows()));
    }
    return linalg::kron_all(factors);
}

Mat tensor(const std::vector<Mat>& ops) { return linalg::kron_all(ops); }

Mat qubit_isometry(std::size_t dim) {
    if (dim < 2) throw std::invalid_argument("qubit_isometry: dim must be >= 2");
    Mat p(dim, 2);
    p(0, 0) = cplx{1.0, 0.0};
    p(1, 1) = cplx{1.0, 0.0};
    return p;
}

Mat embed_qubit_op(const Mat& op2, std::size_t dim) {
    if (op2.rows() != 2 || op2.cols() != 2) {
        throw std::invalid_argument("embed_qubit_op: operator must be 2x2");
    }
    Mat out(dim, dim);
    out.set_block(0, 0, op2);
    return out;
}

}  // namespace qoc::quantum
