#include "rb/leakage_rb.hpp"

#include <cmath>
#include <cstdint>
#include <random>

#include "linalg/kron.hpp"
#include "obs/obs.hpp"
#include "optim/levmar.hpp"
#include "rb/seed_block.hpp"
#include "runtime/ordered.hpp"

namespace qoc::rb {

LeakageRbResult run_leakage_rb_1q(const PulseExecutor& exec, const GateSet1Q& gates,
                                  const RbOptions& opts) {
    // The shared 1Q draw on stream 104729; the read is the population
    // outside {|0>, |1>}, rho(lvl, lvl) at vec index lvl * (d + 1).
    const std::size_t d = gates.dim();
    const auto read = [d](const Mat& v, std::mt19937_64&, std::size_t m, std::size_t seed) {
        double leak = 0.0;
        for (std::size_t lvl = 2; lvl < d; ++lvl) leak += v(lvl * (d + 1), 0).real();
        obs::emit_rb_seed("leakage_rb", m, static_cast<std::int64_t>(seed), 1.0 - leak);
        return leak;
    };
    const std::vector<std::vector<double>> leaks = detail::run_seed_blocks(
        gates, opts, 104729, "rb.leakage_block", linalg::vec(exec.ground_state_1q()), nullptr,
        detail::Draw1Q{gates.group(), nullptr}, read);

    LeakageRbResult res;
    res.lengths = opts.lengths;
    for (const std::vector<double>& l : leaks) {
        res.leakage_population.push_back(runtime::ordered_mean(l));
    }

    // Fit p_comp(m) = A lambda^m + (1 - p_inf) where p_comp = 1 - leakage.
    std::vector<double> p_comp(res.lengths.size());
    for (std::size_t i = 0; i < p_comp.size(); ++i) {
        p_comp[i] = 1.0 - res.leakage_population[i];
    }
    auto model = [&](std::size_t i, const std::vector<double>& p) {
        return p[0] * std::pow(p[1], static_cast<double>(res.lengths[i])) + p[2];
    };
    const auto fit =
        optim::levmar_fit(model, p_comp.size(), p_comp, {0.01, 0.999, 0.99});
    res.lambda = fit.params[1];
    res.p_leak_inf = 1.0 - fit.params[2];
    res.leakage_rate_per_clifford = (1.0 - res.lambda) * res.p_leak_inf;
    return res;
}

}  // namespace qoc::rb
