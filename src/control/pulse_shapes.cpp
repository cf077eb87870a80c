#include "control/pulse_shapes.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>

namespace qoc::control {

namespace {
void require_n(std::size_t n) {
    if (n == 0) throw std::invalid_argument("pulse shape: need at least one sample");
}
/// Sample time of index k as a fraction of the duration, centered in slots.
double frac(std::size_t k, std::size_t n) {
    return (static_cast<double>(k) + 0.5) / static_cast<double>(n);
}
}  // namespace

std::vector<double> gaussian_pulse(std::size_t n, double sigma_fraction) {
    require_n(n);
    std::vector<double> p(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double x = (frac(k, n) - 0.5) / sigma_fraction;
        p[k] = std::exp(-0.5 * x * x);
    }
    return p;
}

std::vector<double> gaussian_derivative_pulse(std::size_t n, double sigma_fraction) {
    require_n(n);
    std::vector<double> p(n);
    double peak = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        const double u = frac(k, n) - 0.5;
        const double x = u / sigma_fraction;
        p[k] = -u * std::exp(-0.5 * x * x);
        peak = std::max(peak, std::abs(p[k]));
    }
    if (peak > 0.0) {
        for (double& v : p) v /= peak;
    }
    return p;
}

DragPulse drag_pulse(std::size_t n, double sigma_fraction, double beta) {
    DragPulse d;
    d.in_phase = gaussian_pulse(n, sigma_fraction);
    d.quadrature = gaussian_derivative_pulse(n, sigma_fraction);
    for (double& v : d.quadrature) v *= beta;
    return d;
}

std::vector<double> gaussian_square_pulse(std::size_t n, double width_fraction,
                                          double sigma_fraction) {
    require_n(n);
    if (width_fraction < 0.0 || width_fraction > 1.0) {
        throw std::invalid_argument("gaussian_square_pulse: bad width fraction");
    }
    const double lo = 0.5 - 0.5 * width_fraction;
    const double hi = 0.5 + 0.5 * width_fraction;
    std::vector<double> p(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double t = frac(k, n);
        if (t < lo) {
            const double x = (t - lo) / sigma_fraction;
            p[k] = std::exp(-0.5 * x * x);
        } else if (t > hi) {
            const double x = (t - hi) / sigma_fraction;
            p[k] = std::exp(-0.5 * x * x);
        } else {
            p[k] = 1.0;
        }
    }
    return p;
}

std::vector<double> sine_pulse(std::size_t n) {
    require_n(n);
    std::vector<double> p(n);
    for (std::size_t k = 0; k < n; ++k) p[k] = std::sin(std::numbers::pi * frac(k, n));
    return p;
}

std::vector<double> square_pulse(std::size_t n) {
    require_n(n);
    return std::vector<double>(n, 1.0);
}

std::vector<double> random_pulse(std::size_t n, std::uint64_t seed) {
    require_n(n);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> p(n);
    for (double& v : p) v = dist(rng);
    return p;
}

std::vector<double> zero_pulse(std::size_t n) {
    require_n(n);
    return std::vector<double>(n, 0.0);
}

std::vector<double> scaled(std::vector<double> pulse, double scale) {
    for (double& v : pulse) v *= scale;
    return pulse;
}

double pulse_area(const std::vector<double>& pulse, double dt) {
    double area = 0.0;
    for (double v : pulse) area += v * dt;
    return area;
}

std::vector<double> resample_zoh(const std::vector<double>& pulse, std::size_t n_dst) {
    require_n(n_dst);
    if (pulse.empty()) throw std::invalid_argument("resample_zoh: empty source");
    std::vector<double> out(n_dst);
    for (std::size_t k = 0; k < n_dst; ++k) {
        const double t = frac(k, n_dst);
        auto src = std::min<std::size_t>(
            static_cast<std::size_t>(t * static_cast<double>(pulse.size())), pulse.size() - 1);
        out[k] = pulse[src];
    }
    return out;
}

}  // namespace qoc::control
