/// \file contracts.hpp
/// \brief `qoc::contracts` -- debug-mode physical-invariant checks.
///
/// The numerics assume invariants the paper's results depend on: Hamiltonians
/// entering propagators are Hermitian, gate targets and Clifford elements are
/// unitary, Lindblad propagation (Eq. 1) is trace preserving, PWC amplitudes
/// respect the hardware box bounds, and optimizer objectives/gradients stay
/// finite.  This header turns those assumptions into executable checks with
/// two gates:
///
///  * **Compile-time**: the `QOC_CONTRACTS` CMake option defines
///    `QOC_CONTRACTS_ENABLED`.  Without it (the Release default) every
///    `QOC_CONTRACT` expands to `((void)0)` -- the condition is not even
///    evaluated -- and every `check_*` helper is an empty inline function the
///    optimizer deletes.  Contract checks therefore cost literally nothing
///    in benchmark and production builds.
///  * **Run-time**: when compiled in, checks are armed by default and gated
///    behind ONE relaxed-atomic word (mirroring `qoc::obs`): `enabled()` is
///    a single relaxed load plus branch.  `QOC_CONTRACTS=0` (or `off`/
///    `false`) in the environment disarms them at startup;
///    `set_enabled(bool)` toggles programmatically (used by the bitwise
///    on-vs-off determinism tests).
///
/// Determinism contract: checks only *read* values the numerics already
/// computed.  They never modify state, never reorder reductions and never
/// synchronize threads, so contracts-on and contracts-off runs produce
/// bitwise-identical results (enforced by tests/contracts).
///
/// A violated contract throws `ContractViolation` with the failing
/// expression, location and a caller-supplied description.  Violations
/// raised inside OpenMP worker threads terminate the process (the what()
/// text is still printed) -- acceptable for a debug-build tripwire.

#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace qoc::contracts {

/// Thrown (from `fail`) when an armed contract is violated.
class ContractViolation : public std::logic_error {
public:
    explicit ContractViolation(const std::string& what_arg) : std::logic_error(what_arg) {}
};

#if defined(QOC_CONTRACTS_ENABLED)

/// The single state word every check loads (relaxed).  Non-zero = armed.
/// Constant-initialized to armed so contracts cover static initializers;
/// the environment override (`QOC_CONTRACTS=0`) is applied during static
/// init of the contracts TU.
inline std::atomic<std::uint32_t> g_contracts_state{1};

/// One relaxed load + branch: the only cost of a passing disarmed check.
inline bool enabled() noexcept {
    return g_contracts_state.load(std::memory_order_relaxed) != 0;
}

/// Arms/disarms all checks at runtime (process-wide).
void set_enabled(bool on) noexcept;

/// Formats and throws `ContractViolation`.  Out-of-line so check sites stay
/// small; never returns.
[[noreturn]] void fail(const char* file, int line, const char* expr, const std::string& detail);

/// Statement-level invariant: `QOC_CONTRACT(cond, "message")`.  `msg` may be
/// any expression convertible to std::string; it is evaluated only on
/// failure.
#define QOC_CONTRACT(cond, msg)                                              \
    do {                                                                     \
        if (::qoc::contracts::enabled() && !(cond)) {                        \
            ::qoc::contracts::fail(__FILE__, __LINE__, #cond, (msg));        \
        }                                                                    \
    } while (false)

#else  // !QOC_CONTRACTS_ENABLED

inline constexpr bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}

/// Compiled to nothing: the condition and message are not evaluated.
#define QOC_CONTRACT(cond, msg) ((void)0)

#endif  // QOC_CONTRACTS_ENABLED

// --- scalar checks -----------------------------------------------------------
//
// Each helper is an armed no-op costing one relaxed load when contracts are
// compiled in, and an empty inline function (removed entirely by the
// optimizer) when they are not.

/// `v` must be finite (no NaN/Inf) -- optimizer costs, fit parameters.
inline void check_finite(double v, const char* what) {
#if defined(QOC_CONTRACTS_ENABLED)
    QOC_CONTRACT(std::isfinite(v),
                 std::string(what) + ": non-finite value " + std::to_string(v));
#else
    (void)v;
    (void)what;
#endif
}

/// Every entry of `v` must be finite -- gradients, amplitude vectors.
inline void check_all_finite(const std::vector<double>& v, const char* what) {
#if defined(QOC_CONTRACTS_ENABLED)
    if (!enabled()) return;
    for (std::size_t i = 0; i < v.size(); ++i) {
        QOC_CONTRACT(std::isfinite(v[i]), std::string(what) + ": non-finite entry at index " +
                                              std::to_string(i) + " = " + std::to_string(v[i]));
    }
#else
    (void)v;
    (void)what;
#endif
}

/// `lo - tol <= v <= hi + tol` -- box-bounded optimizer iterates.
inline void check_in_range(double v, double lo, double hi, const char* what, double tol = 0.0) {
#if defined(QOC_CONTRACTS_ENABLED)
    QOC_CONTRACT(v >= lo - tol && v <= hi + tol,
                 std::string(what) + ": value " + std::to_string(v) + " outside [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
#else
    (void)v;
    (void)lo;
    (void)hi;
    (void)what;
    (void)tol;
#endif
}

/// `p` must be a probability in [0, 1] within `tol` -- survival/readout.
inline void check_probability(double p, const char* what, double tol = 1e-9) {
    check_in_range(p, 0.0, 1.0, what, tol);
}

}  // namespace qoc::contracts
