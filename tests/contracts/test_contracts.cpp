/// Three guarantees of the qoc::contracts layer are pinned here:
///
///  1. Every check fires on a crafted violation (and stays quiet on valid
///     input) when contracts are compiled in and armed.
///  2. The runtime gate works: set_enabled(false) silences an otherwise
///     violated contract; re-arming restores it.  In builds without
///     QOC_CONTRACTS_ENABLED the same calls are no-ops.
///  3. Contracts never perturb the numerics: GRAPE and RB runs with
///     contracts armed vs. disarmed are BITWISE identical (checks only read
///     already-computed values).

#include "contracts/contracts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "contracts/matrix_checks.hpp"
#include "control/control_problem.hpp"
#include "control/grape.hpp"
#include "device/calibration.hpp"
#include "oracles/channels.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"
#include "rb/rb.hpp"

namespace qoc::contracts {
namespace {

namespace g = quantum::gates;
using linalg::cplx;
using linalg::Mat;

/// RAII guard: forces a contract arming state, restores the previous one.
class ArmGuard {
public:
    explicit ArmGuard(bool armed) : prev_(enabled()) { set_enabled(armed); }
    ~ArmGuard() { set_enabled(prev_); }

private:
    bool prev_;
};

/// vec(X) -> vec(X^T): the transpose map.  Trace preserving but famously
/// not completely positive -- the canonical CP-check fixture.
Mat transpose_superop(std::size_t d) {
    Mat s(d * d, d * d);
    for (std::size_t r = 0; r < d; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            s(r + d * c, c + d * r) = 1.0;
        }
    }
    return s;
}

/// Small closed-system transmon X-gate GRAPE problem (3-level, 2 controls),
/// the same shape as the determinism suites.
control::GrapeProblem small_grape_problem() {
    control::GrapeProblem p;
    p.system.drift = quantum::duffing_drift(3, 0.0, -2.0);
    p.system.ctrls = {0.5 * quantum::drive_x(3), 0.5 * quantum::drive_y(3)};
    p.target = g::x();
    p.subspace_isometry = quantum::qubit_isometry(3);
    p.n_timeslots = 12;
    p.evo_time = 3.0;
    p.fidelity = control::FidelityType::kPsu;
    p.initial_amps.resize(p.n_timeslots);
    for (std::size_t k = 0; k < p.n_timeslots; ++k) {
        const double t = static_cast<double>(k) / static_cast<double>(p.n_timeslots);
        p.initial_amps[k] = {0.3 * t, 0.2 * (1.0 - t)};
    }
    return p;
}

#if defined(QOC_CONTRACTS_ENABLED)

TEST(Contracts, CompiledInAndArmedByDefault) {
    // The test environment must not disarm them (QOC_CONTRACTS unset).
    EXPECT_TRUE(enabled());
}

TEST(Contracts, ScalarChecksFireOnViolation) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(check_finite(nan, "t"), ContractViolation);
    EXPECT_THROW(check_finite(inf, "t"), ContractViolation);
    EXPECT_NO_THROW(check_finite(1.0, "t"));

    EXPECT_THROW(check_all_finite(std::vector<double>{0.0, nan}, "t"), ContractViolation);
    EXPECT_NO_THROW(check_all_finite(std::vector<double>{0.0, 1.0}, "t"));

    EXPECT_THROW(check_in_range(1.5, -1.0, 1.0, "t"), ContractViolation);
    EXPECT_NO_THROW(check_in_range(1.0, -1.0, 1.0, "t"));
    EXPECT_NO_THROW(check_in_range(1.0 + 1e-12, -1.0, 1.0, "t", 1e-10));

    EXPECT_THROW(check_probability(1.5, "t"), ContractViolation);
    EXPECT_THROW(check_probability(-0.2, "t"), ContractViolation);
    EXPECT_NO_THROW(check_probability(0.5, "t"));

    EXPECT_THROW(check_amplitude_bounds({{0.0, 2.0}}, -1.0, 1.0, "t"), ContractViolation);
    EXPECT_NO_THROW(check_amplitude_bounds({{0.0, 0.9}, {-1.0, 1.0}}, -1.0, 1.0, "t"));
}

TEST(Contracts, MatrixChecksFireOnViolation) {
    Mat nonherm = g::x();
    nonherm(0, 1) += cplx{0.0, 1e-3};
    EXPECT_THROW(check_hermitian(nonherm, "t"), ContractViolation);
    EXPECT_NO_THROW(check_hermitian(g::x(), "t"));

    EXPECT_THROW(check_unitary(2.0 * g::x(), "t"), ContractViolation);
    EXPECT_NO_THROW(check_unitary(g::h(), "t"));

    EXPECT_THROW(check_normalized_ket(2.0 * quantum::basis_ket(2, 0), "t"), ContractViolation);
    EXPECT_NO_THROW(check_normalized_ket(quantum::basis_ket(2, 0), "t"));

    const Mat good = quantum::unitary_superop(g::h());
    EXPECT_THROW(check_trace_preserving(1.1 * good, "t"), ContractViolation);
    EXPECT_NO_THROW(check_trace_preserving(good, "t"));
    EXPECT_NO_THROW(check_trace_preserving(oracle::depolarizing_superop(2, 0.1), "t"));

    // TP but not CP: the transpose map must pass TP and fail CP.
    const Mat transpose = transpose_superop(2);
    EXPECT_NO_THROW(check_trace_preserving(transpose, "t"));
    EXPECT_THROW(check_completely_positive(transpose, "t"), ContractViolation);
    EXPECT_NO_THROW(check_completely_positive(good, "t"));

    // A unitary superop preserves trace, so it cannot annihilate it.
    EXPECT_THROW(check_trace_annihilating(good, "t"), ContractViolation);
    EXPECT_NO_THROW(check_trace_annihilating(
        quantum::liouvillian(Mat(2, 2), {0.1 * quantum::sigma_minus()}), "t"));

    Mat rho0 = quantum::ket_to_dm(quantum::basis_ket(2, 0));
    EXPECT_NO_THROW(check_density_vec(linalg::vec(rho0), "t"));
    EXPECT_THROW(check_density_vec(linalg::vec(2.0 * rho0), "t"), ContractViolation);
}

TEST(Contracts, ViolationMessageNamesSiteAndCheck) {
    try {
        check_unitary(2.0 * g::x(), "MyCheck: scaled X");
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("MyCheck: scaled X"), std::string::npos) << what;
        EXPECT_NE(what.find("contract"), std::string::npos) << what;
    }
}

TEST(Contracts, PropagatorRejectsNonHermitianHamiltonian) {
    Mat bad_drift = quantum::sigma_x();
    bad_drift(1, 0) += cplx{0.0, 1e-3};  // breaks H = H^dag
    EXPECT_THROW(quantum::liouvillian(bad_drift, {}), ContractViolation);
}

TEST(Contracts, LiouvillianRejectsNonHermitianHamiltonian) {
    Mat bad = quantum::sigma_x();
    bad(0, 0) = cplx{0.0, 0.5};
    EXPECT_THROW(quantum::liouvillian_hamiltonian(bad), ContractViolation);
}

TEST(Contracts, GrapeRejectsNonUnitaryTarget) {
    control::GrapeProblem p = small_grape_problem();
    p.target = 2.0 * g::x();  // not unitary
    std::vector<double> grad;
    EXPECT_THROW(
        {
            const control::ControlProblem cp(p);
            cp.objective(cp.flatten(p.initial_amps), grad);
        },
        ContractViolation);
}

TEST(Contracts, RuntimeGateSilencesAndRearms) {
    const Mat bad = 2.0 * g::x();
    {
        ArmGuard off(false);
        EXPECT_FALSE(enabled());
        EXPECT_NO_THROW(check_unitary(bad, "t"));
        EXPECT_NO_THROW(QOC_CONTRACT(false, "never evaluated when disarmed"));
    }
    EXPECT_TRUE(enabled());
    EXPECT_THROW(check_unitary(bad, "t"), ContractViolation);
}

#else  // !QOC_CONTRACTS_ENABLED

TEST(Contracts, CompiledOutEverythingIsANoOp) {
    EXPECT_FALSE(enabled());
    set_enabled(true);  // cannot arm what is not compiled in
    EXPECT_FALSE(enabled());

    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NO_THROW(check_finite(nan, "t"));
    EXPECT_NO_THROW(check_in_range(5.0, -1.0, 1.0, "t"));
    EXPECT_NO_THROW(check_unitary(2.0 * g::x(), "t"));
    EXPECT_NO_THROW(check_trace_preserving(transpose_superop(2), "t", 0.0));
    // The condition of a compiled-out QOC_CONTRACT is not even evaluated.
    bool evaluated = false;
    QOC_CONTRACT(([&] {
                     evaluated = true;
                     return false;
                 }()),
                 "side effect must not run");
    EXPECT_FALSE(evaluated);
}

TEST(Contracts, CompiledOutPropagatorAcceptsNonHermitianInput) {
    Mat bad_drift = quantum::sigma_x();
    bad_drift(1, 0) += cplx{0.0, 1e-3};
    EXPECT_NO_THROW(quantum::liouvillian(bad_drift, {}));
}

#endif  // QOC_CONTRACTS_ENABLED

/// Bitwise on-vs-off: contracts must never change a single ULP of the
/// numerics.  Meaningful when compiled in (toggles the runtime gate); in
/// compiled-out builds it degenerates to running the same code twice and
/// still must agree, so it runs everywhere.
TEST(ContractsDeterminism, GrapeEvaluationBitIdenticalOnVsOff) {
    const control::GrapeProblem p = small_grape_problem();
    std::vector<double> grad_on, grad_off;
    double err_on = 0.0, err_off = 0.0;
    {
        ArmGuard on(true);
        const control::ControlProblem cp(p);
        err_on = cp.objective(cp.flatten(p.initial_amps), grad_on);
    }
    {
        ArmGuard off(false);
        const control::ControlProblem cp(p);
        err_off = cp.objective(cp.flatten(p.initial_amps), grad_off);
    }
    EXPECT_EQ(std::memcmp(&err_on, &err_off, sizeof(double)), 0);
    ASSERT_EQ(grad_on.size(), grad_off.size());
    ASSERT_FALSE(grad_on.empty());
    EXPECT_EQ(std::memcmp(grad_on.data(), grad_off.data(), grad_on.size() * sizeof(double)), 0);
}

TEST(ContractsDeterminism, RbRunBitIdenticalOnVsOff) {
    const device::PulseExecutor exec{device::ibmq_montreal()};
    const pulse::InstructionScheduleMap defaults = device::build_default_gates(exec);
    const rb::Clifford1Q group;
    const rb::GateSet1Q gates(exec, defaults, 0, group);

    rb::RbOptions opts;
    opts.lengths = {1, 20, 50};
    opts.seeds_per_length = 2;
    opts.shots = 128;

    rb::RbCurve on, off;
    {
        ArmGuard armed(true);
        on = rb::run_rb_1q(exec, gates, 0, opts);
    }
    {
        ArmGuard disarmed(false);
        off = rb::run_rb_1q(exec, gates, 0, opts);
    }
    ASSERT_EQ(on.points.size(), off.points.size());
    for (std::size_t i = 0; i < on.points.size(); ++i) {
        EXPECT_EQ(std::memcmp(&on.points[i].mean_survival, &off.points[i].mean_survival,
                              sizeof(double)),
                  0);
        EXPECT_EQ(std::memcmp(&on.points[i].sem, &off.points[i].sem, sizeof(double)), 0);
    }
    EXPECT_EQ(std::memcmp(&on.epc, &off.epc, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&on.alpha, &off.alpha, sizeof(double)), 0);
}

}  // namespace
}  // namespace qoc::contracts
