#include "pulse/waveform.hpp"

#include <algorithm>
#include <stdexcept>

#include "control/pulse_shapes.hpp"

namespace qoc::pulse {

Waveform::Waveform(std::vector<std::complex<double>> samples, std::string name)
    : samples_(std::move(samples)), name_(std::move(name)) {
    if (samples_.empty()) throw std::invalid_argument("Waveform: empty sample list");
    for (const auto& s : samples_) {
        if (std::abs(s) > 1.0 + 1e-9) {
            throw std::invalid_argument("Waveform: |sample| exceeds the unit amplitude bound");
        }
    }
}

double Waveform::max_amp() const {
    double m = 0.0;
    for (const auto& s : samples_) m = std::max(m, std::abs(s));
    return m;
}

namespace {
Waveform from_envelope(const std::vector<double>& env, std::complex<double> amp,
                       std::string name) {
    std::vector<std::complex<double>> samples(env.size());
    for (std::size_t k = 0; k < env.size(); ++k) samples[k] = amp * env[k];
    return Waveform(std::move(samples), std::move(name));
}
}  // namespace

Waveform drag_waveform(std::size_t duration, std::complex<double> amp, double beta,
                       double sigma_fraction) {
    const auto d = control::drag_pulse(duration, sigma_fraction, beta);
    std::vector<std::complex<double>> samples(duration);
    for (std::size_t k = 0; k < duration; ++k) {
        samples[k] = amp * std::complex<double>{d.in_phase[k], d.quadrature[k]};
    }
    return Waveform(std::move(samples), "drag");
}

Waveform gaussian_square_waveform(std::size_t duration, std::complex<double> amp,
                                  double width_fraction, double sigma_fraction) {
    return from_envelope(control::gaussian_square_pulse(duration, width_fraction, sigma_fraction),
                         amp, "gaussian_square");
}

Waveform iq_waveform(const std::vector<double>& in_phase, const std::vector<double>& quadrature,
                     std::string name, bool clip) {
    if (in_phase.size() != quadrature.size()) {
        throw std::invalid_argument("iq_waveform: I/Q length mismatch");
    }
    std::vector<std::complex<double>> samples(in_phase.size());
    for (std::size_t k = 0; k < in_phase.size(); ++k) {
        std::complex<double> s{in_phase[k], quadrature[k]};
        if (clip && std::abs(s) > 1.0) s /= std::abs(s);
        samples[k] = s;
    }
    return Waveform(std::move(samples), std::move(name));
}

}  // namespace qoc::pulse
