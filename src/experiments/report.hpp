/// \file report.hpp
/// \brief Console reporting helpers shared by the benchmark harness: aligned
///        tables, scientific-notation error formatting ("2.0(5)e-4" style),
///        ASCII pulse sketches and histogram bars.

#pragma once

#include <string>
#include <vector>

#include "device/executor.hpp"
#include "rb/rb.hpp"

namespace qoc::experiments {

/// Formats value +- error in the paper's compact style, e.g. 1.97e-4 with
/// error 4.9e-5 -> "1.97(49)e-04".
std::string format_error_rate(double value, double error);

/// Prints a titled table: header row plus rows, columns padded.
void print_table(const std::string& title, const std::vector<std::string>& header,
                 const std::vector<std::vector<std::string>>& rows);

/// Prints an RB decay curve (length, survival, sem, fit value per point).
void print_rb_curve(const std::string& label, const rb::RbCurve& curve);

/// Prints a shot histogram as percentage bars.
void print_histogram(const std::string& label, const device::Counts& counts);

/// Prints an ASCII sketch of a pulse envelope: one line per control with
/// a downsampled bar rendering plus min/max annotations.
void print_pulse(const std::string& label, const std::vector<double>& samples,
                 std::size_t width = 64);

/// Prints a complex waveform (I and Q rows).
void print_waveform(const std::string& label,
                    const std::vector<std::complex<double>>& samples, std::size_t width = 64);

/// Prints the obs metrics registry: propagator-cache and Clifford-memo
/// hit/miss rates, superop matvec totals, gemm/LU counts and the expm
/// Pade-order histogram.  No-op unless metrics collection is enabled
/// (QOC_METRICS or obs::enable_metrics).
void print_metrics_summary();

}  // namespace qoc::experiments
