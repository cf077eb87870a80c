/// \file waveform.hpp
/// \brief Sampled complex waveforms and the pulse shapes the device
///        calibrations and designs play (drag, gaussian_square, optimizer
///        I/Q), mirroring the qiskit.pulse library the paper drives through
///        OpenPulse.

#pragma once

#include <complex>
#include <string>
#include <vector>

namespace qoc::pulse {

/// A named, sampled complex envelope.  Samples are in device `dt` units and
/// must obey |sample| <= 1 (the hardware amplitude constraint the paper
/// imposes on its optimizer output).
class Waveform {
public:
    Waveform() = default;

    /// Throws `std::invalid_argument` when any |sample| > 1 + 1e-9 or the
    /// sample list is empty.
    Waveform(std::vector<std::complex<double>> samples, std::string name = "waveform");

    const std::vector<std::complex<double>>& samples() const noexcept { return samples_; }
    const std::string& name() const noexcept { return name_; }
    std::size_t duration() const noexcept { return samples_.size(); }  ///< in dt

    /// Peak |sample|.
    double max_amp() const;

private:
    std::vector<std::complex<double>> samples_;
    std::string name_ = "waveform";
};

/// DRAG: gaussian I with beta-scaled derivative on Q,
/// samples = amp * (g(t) + i beta dg(t)).
Waveform drag_waveform(std::size_t duration, std::complex<double> amp, double beta,
                       double sigma_fraction = 0.25);

/// Flat-top gaussian-square (the CR pulse shape of the paper's Fig. 9).
Waveform gaussian_square_waveform(std::size_t duration, std::complex<double> amp,
                                  double width_fraction = 0.6, double sigma_fraction = 0.1);

/// Wraps optimizer output: I samples on the real part, Q on the imaginary.
/// Vectors must be equal length; values are clipped to the unit disc only if
/// `clip` is set, otherwise out-of-range samples throw.
Waveform iq_waveform(const std::vector<double>& in_phase, const std::vector<double>& quadrature,
                     std::string name = "optimized", bool clip = false);

}  // namespace qoc::pulse
