#include "experiments/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "obs/obs.hpp"

namespace qoc::experiments {

std::string format_error_rate(double value, double error) {
    if (value <= 0.0) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.2e", value);
        return buf;
    }
    const int exponent = static_cast<int>(std::floor(std::log10(value)));
    const double mantissa = value / std::pow(10.0, exponent);
    const double err_mantissa = error / std::pow(10.0, exponent);
    char buf[64];
    // Error in parentheses scaled to the last shown digits (two decimals).
    const int err_digits = static_cast<int>(std::round(err_mantissa * 100.0));
    std::snprintf(buf, sizeof(buf), "%.2f(%d)e%+03d", mantissa, err_digits, exponent);
    return buf;
}

void print_table(const std::string& title, const std::vector<std::string>& header,
                 const std::vector<std::vector<std::string>>& rows) {
    std::vector<std::size_t> widths(header.size(), 0);
    for (std::size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
    for (const auto& row : rows) {
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    std::size_t total = 0;
    for (std::size_t w : widths) total += w + 3;

    std::cout << "\n== " << title << " ==\n";
    auto print_row = [&](const std::vector<std::string>& cells) {
        std::cout << "| ";
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string cell = c < cells.size() ? cells[c] : "";
            std::cout << cell << std::string(widths[c] - cell.size(), ' ') << " | ";
        }
        std::cout << "\n";
    };
    print_row(header);
    std::cout << std::string(total + 1, '-') << "\n";
    for (const auto& row : rows) print_row(row);
}

void print_rb_curve(const std::string& label, const rb::RbCurve& curve) {
    std::cout << "\n-- " << label << " --\n";
    std::printf("   fit: %.4f * %.6f^m + %.4f   (alpha err %.1e)\n", curve.a, curve.alpha,
                curve.b, curve.alpha_err);
    std::printf("   EPC = %s\n", format_error_rate(curve.epc, curve.epc_err).c_str());
    for (const auto& pt : curve.points) {
        const double fit = curve.a * std::pow(curve.alpha, static_cast<double>(pt.length)) +
                           curve.b;
        std::printf("   m=%5zu  survival=%.4f +- %.4f   fit=%.4f\n", pt.length,
                    pt.mean_survival, pt.sem, fit);
    }
}

void print_histogram(const std::string& label, const device::Counts& counts) {
    std::cout << "\n-- " << label << " (" << counts.shots << " shots) --\n";
    for (const auto& [bits, n] : counts.histogram) {
        const double p = static_cast<double>(n) / std::max(1, counts.shots);
        const int bars = static_cast<int>(std::round(p * 50));
        std::printf("   |%s>  %6.2f%%  %s\n", bits.c_str(), 100.0 * p,
                    std::string(bars, '#').c_str());
    }
}

namespace {
void render_series(const std::vector<double>& samples, std::size_t width) {
    if (samples.empty()) return;
    double lo = samples[0], hi = samples[0];
    for (double v : samples) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double span = std::max(hi - lo, 1e-12);
    const std::size_t n = std::min(width, samples.size());
    const char levels[] = " .:-=+*#%@";
    std::string line;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = i * samples.size() / n;
        const double norm = (samples[idx] - lo) / span;
        line += levels[static_cast<std::size_t>(std::round(norm * 9.0))];
    }
    std::printf("   [%+.3f, %+.3f]  %s\n", lo, hi, line.c_str());
}
}  // namespace

void print_pulse(const std::string& label, const std::vector<double>& samples,
                 std::size_t width) {
    std::cout << "   " << label << ":\n";
    render_series(samples, width);
}

void print_waveform(const std::string& label,
                    const std::vector<std::complex<double>>& samples, std::size_t width) {
    std::vector<double> i_part(samples.size()), q_part(samples.size());
    for (std::size_t k = 0; k < samples.size(); ++k) {
        i_part[k] = samples[k].real();
        q_part[k] = samples[k].imag();
    }
    std::cout << "   " << label << " (I then Q):\n";
    render_series(i_part, width);
    render_series(q_part, width);
}

void print_metrics_summary() {
    if (!obs::metrics_enabled()) return;
    using obs::Cnt;
    const auto v = [](Cnt c) { return obs::counter_value(c); };
    const auto rate = [](std::uint64_t hits, std::uint64_t misses) {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                      static_cast<double>(total);
    };

    std::cout << "\n== obs metrics summary ==\n";
    const std::uint64_t cm_h = v(Cnt::kCliffMemoHits), cm_m = v(Cnt::kCliffMemoMisses);
    std::printf("   clifford memo  : %llu hits / %llu misses  (%.1f%% hit rate)\n",
                static_cast<unsigned long long>(cm_h),
                static_cast<unsigned long long>(cm_m), rate(cm_h, cm_m));
    std::printf("   superop applies: %llu\n",
                static_cast<unsigned long long>(v(Cnt::kSuperopApplies)));
    std::printf("   gemm / LU      : %llu / %llu\n",
                static_cast<unsigned long long>(v(Cnt::kGemmCalls)),
                static_cast<unsigned long long>(v(Cnt::kLuFactorizations)));
    std::printf("   expm pade order: 3:%llu 5:%llu 7:%llu 9:%llu 13:%llu\n",
                static_cast<unsigned long long>(v(Cnt::kExpmPade3)),
                static_cast<unsigned long long>(v(Cnt::kExpmPade5)),
                static_cast<unsigned long long>(v(Cnt::kExpmPade7)),
                static_cast<unsigned long long>(v(Cnt::kExpmPade9)),
                static_cast<unsigned long long>(v(Cnt::kExpmPade13)));
}

}  // namespace qoc::experiments
