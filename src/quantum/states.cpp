#include "quantum/states.hpp"

#include <algorithm>
#include <stdexcept>

#include "quantum/operators.hpp"

namespace qoc::quantum {

Mat basis_ket(std::size_t dim, std::size_t k) {
    if (k >= dim) throw std::invalid_argument("basis_ket: index out of range");
    Mat v(dim, 1);
    v(k, 0) = cplx{1.0, 0.0};
    return v;
}

Mat ket_to_dm(const Mat& ket) {
    if (ket.cols() != 1) throw std::invalid_argument("ket_to_dm: not a column vector");
    return ket * ket.adjoint();
}

Mat basis_ket_bits(const std::vector<int>& bits) {
    std::size_t index = 0;
    for (int b : bits) {
        if (b != 0 && b != 1) throw std::invalid_argument("basis_ket_bits: bits must be 0/1");
        index = (index << 1) | static_cast<std::size_t>(b);
    }
    return basis_ket(std::size_t{1} << bits.size(), index);
}

std::vector<double> populations(const Mat& rho) {
    std::vector<double> p(rho.rows());
    for (std::size_t i = 0; i < rho.rows(); ++i) {
        p[i] = std::clamp(rho(i, i).real(), 0.0, 1.0);
    }
    return p;
}

BlochVector bloch_vector(const Mat& rho) {
    if (rho.rows() != 2) throw std::invalid_argument("bloch_vector: need a qubit state");
    return BlochVector{(rho * sigma_x()).trace().real(), (rho * sigma_y()).trace().real(),
                       (rho * sigma_z()).trace().real()};
}

Mat partial_trace(const Mat& rho, std::size_t d0, std::size_t d1, std::size_t which) {
    if (rho.rows() != d0 * d1 || !rho.is_square()) {
        throw std::invalid_argument("partial_trace: dimension mismatch");
    }
    if (which > 1) throw std::invalid_argument("partial_trace: which must be 0 or 1");
    if (which == 0) {
        // Trace out subsystem 0, keep 1.
        Mat out(d1, d1);
        for (std::size_t i = 0; i < d1; ++i)
            for (std::size_t j = 0; j < d1; ++j)
                for (std::size_t k = 0; k < d0; ++k)
                    out(i, j) += rho(k * d1 + i, k * d1 + j);
        return out;
    }
    Mat out(d0, d0);
    for (std::size_t i = 0; i < d0; ++i)
        for (std::size_t j = 0; j < d0; ++j)
            for (std::size_t k = 0; k < d1; ++k)
                out(i, j) += rho(i * d1 + k, j * d1 + k);
    return out;
}

}  // namespace qoc::quantum
