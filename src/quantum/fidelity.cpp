#include "quantum/fidelity.hpp"

#include <stdexcept>

#include "quantum/superop.hpp"

namespace qoc::quantum {

double average_gate_fidelity_superop(const Mat& u_target, const Mat& superop) {
    const double d = static_cast<double>(u_target.rows());
    const Mat s_target = unitary_superop(u_target);
    const double f_pro = linalg::hs_inner(s_target, superop).real() / (d * d);
    return (d * f_pro + 1.0) / (d + 1.0);
}

double average_gate_fidelity_subspace(const Mat& u_target2, const Mat& superop,
                                      std::size_t levels) {
    if (u_target2.rows() != 2 || superop.rows() != levels * levels) {
        throw std::invalid_argument("average_gate_fidelity_subspace: shape mismatch");
    }
    // vec index of |i><j| under column stacking is i + d*j.
    auto idx = [levels](std::size_t i, std::size_t j) { return i + levels * j; };
    Mat sub(4, 4);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            for (std::size_t k = 0; k < 2; ++k)
                for (std::size_t l = 0; l < 2; ++l)
                    sub(i + 2 * j, k + 2 * l) = superop(idx(i, j), idx(k, l));
    const Mat s_target = unitary_superop(u_target2);
    const double f_pro = linalg::hs_inner(s_target, sub).real() / 4.0;
    return (2.0 * f_pro + 1.0) / 3.0;
}

}  // namespace qoc::quantum
