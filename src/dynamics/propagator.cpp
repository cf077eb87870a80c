#include "dynamics/propagator.hpp"

#include <stdexcept>

#include "contracts/matrix_checks.hpp"
#include "linalg/expm.hpp"

namespace qoc::dynamics {

namespace {
using linalg::cplx;
constexpr cplx kI{0.0, 1.0};

void check_amps(const PwcSystem& sys, const ControlAmplitudes& amps) {
    for (const auto& slot : amps) {
        if (slot.size() != sys.ctrls.size()) {
            throw std::invalid_argument("pwc propagators: amplitude/control count mismatch");
        }
    }
}

/// Shared slot-exponentiation loop: builds `scale * (drift + sum u_j H_j)`
/// into a reused buffer and exponentiates through one workspace, so a
/// waveform of thousands of slots costs no allocation beyond the returned
/// propagators themselves.
std::vector<Mat> pwc_propagators(const PwcSystem& sys, const ControlAmplitudes& amps, cplx scale,
                                 linalg::ExpmMethod method) {
    check_amps(sys, amps);
    linalg::ExpmWorkspace ws;
    Mat gen;
    std::vector<Mat> props(amps.size());
    for (std::size_t k = 0; k < amps.size(); ++k) {
        gen = sys.drift;
        for (std::size_t j = 0; j < sys.ctrls.size(); ++j) {
            linalg::add_scaled(gen, amps[k][j], sys.ctrls[j]);
        }
        gen *= scale;
        linalg::expm_into(gen, props[k], ws, method);
    }
    return props;
}
}  // namespace

Mat PwcSystem::generator(const std::vector<double>& amps) const {
    if (amps.size() != ctrls.size()) {
        throw std::invalid_argument("PwcSystem::generator: amplitude count mismatch");
    }
    Mat g = drift;
    for (std::size_t j = 0; j < ctrls.size(); ++j) g += amps[j] * ctrls[j];
    return g;
}

std::vector<Mat> pwc_unitary_propagators(const PwcSystem& sys, const ControlAmplitudes& amps,
                                         double dt) {
    // Closed-system slot generators H_0 + sum u_j H_j are Hermitian iff the
    // drift and every control generator are; checking the parts once beats
    // checking each of the (possibly thousands of) slot sums.
    contracts::check_hermitian(sys.drift, "pwc_unitary_propagators: drift H_0");
    for (const Mat& c : sys.ctrls) {
        contracts::check_hermitian(c, "pwc_unitary_propagators: control H_j");
    }
    // kAuto: Hermitian-generator slots take the exact spectral path.
    std::vector<Mat> props = pwc_propagators(sys, amps, -kI * dt, linalg::ExpmMethod::kAuto);
    for (const Mat& p : props) {
        contracts::check_unitary(p, "pwc_unitary_propagators: slot propagator", 1e-9);
    }
    return props;
}

std::vector<Mat> pwc_superop_propagators(const PwcSystem& sys, const ControlAmplitudes& amps,
                                         double dt) {
    // Liouvillians are non-Hermitian: pin Pade rather than paying the
    // anti-Hermitian scan per slot.
    return pwc_propagators(sys, amps, cplx{dt, 0.0}, linalg::ExpmMethod::kPade);
}

Mat chain_product(const std::vector<Mat>& props) {
    if (props.empty()) throw std::invalid_argument("chain_product: empty chain");
    Mat total = props.front();
    for (std::size_t k = 1; k < props.size(); ++k) total = props[k] * total;
    return total;
}

std::vector<Mat> forward_products(const std::vector<Mat>& props) {
    std::vector<Mat> fwd;
    fwd.reserve(props.size());
    for (std::size_t k = 0; k < props.size(); ++k) {
        fwd.push_back(k == 0 ? props[0] : props[k] * fwd[k - 1]);
    }
    return fwd;
}

std::vector<Mat> backward_products(const std::vector<Mat>& props) {
    const std::size_t n = props.size();
    std::vector<Mat> bwd(n);
    bwd[n - 1] = Mat::identity(props[0].rows());
    for (std::size_t k = n - 1; k-- > 0;) {
        bwd[k] = bwd[k + 1] * props[k + 1];
    }
    return bwd;
}

}  // namespace qoc::dynamics
