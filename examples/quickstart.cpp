/// \file quickstart.cpp
/// \brief Minimal qoc usage: synthesize an X-gate pulse with second-order
///        GRAPE (L-BFGS-B) on a two-level qubit, exactly like the paper's
///        QuTiP `pulseoptim` workflow.
///
/// Build & run:  ./examples/quickstart

#include <cstdio>

#include "control/pulseoptim.hpp"
#include "experiments/report.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"

int main() {
    using namespace qoc;

    // The control problem: H(t) = u_x(t) sx/2 + u_y(t) sy/2, target X,
    // 32 piecewise-constant slots over 50 ns, amplitudes within +-1.
    control::PulseOptimSpec spec;
    spec.h_drift = linalg::Mat(2, 2);  // rotating frame: zero drift
    spec.h_ctrls = {0.5 * quantum::sigma_x(), 0.5 * quantum::sigma_y()};
    spec.u_target = quantum::gates::x();
    spec.n_timeslots = 32;
    spec.evo_time = 50.0;  // ns
    spec.initial_pulse = control::InitialPulseType::kDrag;
    spec.initial_scale = 0.1;

    const control::GrapeResult result = control::pulse_optim(spec);

    std::printf("qoc quickstart: X-gate pulse synthesis\n");
    std::printf("  initial infidelity : %.3e\n", result.initial_fid_err);
    std::printf("  final infidelity   : %.3e\n", result.final_fid_err);
    std::printf("  iterations         : %d (L-BFGS-B)\n", result.iterations);
    std::printf("  stop reason        : %s\n", optim::to_string(result.reason).c_str());

    std::printf("\n  optimized amplitudes (slot: u_x, u_y):\n");
    for (std::size_t k = 0; k < result.final_amps.size(); k += 4) {
        std::printf("    %2zu: %+.4f  %+.4f\n", k, result.final_amps[k][0],
                    result.final_amps[k][1]);
    }
    experiments::print_metrics_summary();  // no-op unless QOC_METRICS is set
    return result.final_fid_err < 1e-6 ? 0 : 1;
}
