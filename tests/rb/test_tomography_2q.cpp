#include <gtest/gtest.h>

#include "device/calibration.hpp"
#include "linalg/kron.hpp"
#include "oracles/quantum.hpp"
#include "quantum/fidelity.hpp"
#include "quantum/gates.hpp"
#include "quantum/superop.hpp"
#include "rb/tomography.hpp"

namespace qoc::rb {
namespace {

namespace g = quantum::gates;

TEST(Ptm2qMath, IdentityAndCx) {
    EXPECT_TRUE(ptm_of_unitary_2q(Mat::identity(4)).approx_equal(Mat::identity(16), 1e-12));
    const Mat r = ptm_of_unitary_2q(g::cx());
    // CX maps IZ->ZZ (index of I,Z = 0*4+3 = 3; Z,Z = 3*4+3 = 15).
    EXPECT_NEAR(r(15, 3).real(), 1.0, 1e-12);
    // CX maps XI->XX (X,I = 4; X,X = 5).
    EXPECT_NEAR(r(5, 4).real(), 1.0, 1e-12);
    // PTM of a unitary is orthogonal on the full 16-dim space.
    EXPECT_TRUE((r.transpose() * r).approx_equal(Mat::identity(16), 1e-10));
}

TEST(Ptm2qMath, FidelityMatchesUnitaryFormula) {
    for (const Mat& u : {g::cx(), oracle::cz(), linalg::kron(g::h(), g::s()), oracle::iswap()}) {
        const double via_ptm = avg_fidelity_from_ptm_2q(ptm_of_unitary_2q(u), g::cx());
        const double direct = oracle::average_gate_fidelity(g::cx(), u);
        EXPECT_NEAR(via_ptm, direct, 1e-10);
    }
}

class Tomography2qTest : public ::testing::Test {
protected:
    static device::PulseExecutor& exec() {
        static device::PulseExecutor instance{device::ibmq_montreal()};
        return instance;
    }
    static const pulse::InstructionScheduleMap& defaults() {
        static pulse::InstructionScheduleMap map = device::build_default_gates(exec());
        return map;
    }
};

TEST_F(Tomography2qTest, IdealCxChannelReconstructed) {
    // Feed the NOISELESS CX superoperator through the (noisy-SPAM)
    // tomography pipeline: the estimate must be close to 1 and the key PTM
    // entries must carry CX's structure.
    const Mat ideal = quantum::unitary_superop(g::cx());
    const auto res = process_tomography_2q(exec(), defaults(), ideal, g::cx(),
                                           {.shots = 1 << 14});
    EXPECT_GT(res.avg_gate_fidelity, 0.97);
    EXPECT_GT(res.ptm(15, 3).real(), 0.9);   // IZ -> ZZ
    EXPECT_GT(res.ptm(5, 4).real(), 0.9);    // XI -> XX
}

TEST_F(Tomography2qTest, DefaultCxMeasuredNearDirectFidelity) {
    const Mat sup = exec().schedule_superop_2q(defaults().get("cx", {0, 1}));
    const double direct = quantum::average_gate_fidelity_superop(g::cx(), sup);
    const auto res =
        process_tomography_2q(exec(), defaults(), sup, g::cx(), {.shots = 1 << 14});
    // Tomography carries a ~1e-2 SPAM floor on two qubits; require agreement
    // at that scale.
    EXPECT_NEAR(res.avg_gate_fidelity, direct, 0.03);
}

TEST_F(Tomography2qTest, DistinguishesCxFromIdentity) {
    const Mat ident_chan = Mat::identity(16);
    const auto res = process_tomography_2q(exec(), defaults(), ident_chan, g::cx(),
                                           {.shots = 1 << 13});
    // F_avg(CX target, identity channel) = (4 * (4/16) + 1)/5 = 0.4.
    EXPECT_NEAR(res.avg_gate_fidelity, 0.4, 0.05);
}

}  // namespace
}  // namespace qoc::rb
