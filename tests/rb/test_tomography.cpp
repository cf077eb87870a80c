#include "rb/tomography.hpp"

#include <gtest/gtest.h>

#include "device/calibration.hpp"
#include "oracles/channels.hpp"
#include "oracles/quantum.hpp"
#include "quantum/gates.hpp"
#include "quantum/superop.hpp"

namespace qoc::rb {
namespace {

namespace g = quantum::gates;

class TomographyTest : public ::testing::Test {
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

TEST(PtmMath, IdentityPtmIsIdentity) {
    EXPECT_TRUE(ptm_of_unitary(Mat::identity(2)).approx_equal(Mat::identity(4), 1e-12));
}

TEST(PtmMath, XGatePtm) {
    const Mat r = ptm_of_unitary(g::x());
    // X: I->I, X->X, Y->-Y, Z->-Z.
    EXPECT_NEAR(r(0, 0).real(), 1.0, 1e-12);
    EXPECT_NEAR(r(1, 1).real(), 1.0, 1e-12);
    EXPECT_NEAR(r(2, 2).real(), -1.0, 1e-12);
    EXPECT_NEAR(r(3, 3).real(), -1.0, 1e-12);
    EXPECT_NEAR(r(0, 1).real(), 0.0, 1e-12);
}

TEST(PtmMath, PtmIsReal) {
    const Mat r = ptm_of_unitary(g::t());
    for (const auto& v : r.data()) EXPECT_NEAR(v.imag(), 0.0, 1e-12);
}

TEST(PtmMath, FidelityFromPtmMatchesUnitaryFormula) {
    for (const Mat& u : {g::x(), g::h(), g::sx(), g::rx(0.3)}) {
        const double via_ptm = avg_fidelity_from_ptm(ptm_of_unitary(u), g::x());
        const double direct = oracle::average_gate_fidelity(g::x(), u);
        EXPECT_NEAR(via_ptm, direct, 1e-10);
    }
}

TEST(Mitigation, InvertsConfusionExactly) {
    device::BackendConfig cfg = device::ibmq_montreal();
    cfg.qubits[0].readout_p10 = 0.03;
    cfg.qubits[0].readout_p01 = 0.07;
    device::PulseExecutor dev(cfg);
    // true p1 = 0.6 -> measured = 0.6*(1-0.07) + 0.4*0.03 = 0.570
    const double measured = 0.6 * 0.93 + 0.4 * 0.03;
    EXPECT_NEAR(mitigate_p1(dev, 0, measured), 0.6, 1e-12);
    // Clamping.
    EXPECT_DOUBLE_EQ(mitigate_p1(dev, 0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(mitigate_p1(dev, 0, 1.0), 1.0);
}

TEST_F(TomographyTest, IdentityChannelNearPerfect) {
    const std::size_t d2 = exec().config().levels * exec().config().levels;
    const Mat ident = Mat::identity(d2);
    const auto res = process_tomography_1q(exec(), defaults(), ident, Mat::identity(2), 0,
                                           {.shots = 1 << 15});
    // SPAM (imperfect prep/basis gates) costs a little; mitigation removes
    // the readout part.
    EXPECT_GT(res.avg_gate_fidelity, 0.99);
    EXPECT_GT(res.unitarity, 0.97);
}

TEST_F(TomographyTest, DefaultXNearIdealX) {
    const Mat x_super = exec().schedule_superop_1q(defaults().get("x", {0}), 0);
    const auto res =
        process_tomography_1q(exec(), defaults(), x_super, g::x(), 0, {.shots = 1 << 15});
    EXPECT_GT(res.avg_gate_fidelity, 0.99);
    // PTM diagonal signs of X survive reconstruction.
    EXPECT_GT(res.ptm(1, 1).real(), 0.9);
    EXPECT_LT(res.ptm(2, 2).real(), -0.9);
    EXPECT_LT(res.ptm(3, 3).real(), -0.9);
}

TEST_F(TomographyTest, DetectsDepolarizingStrength) {
    // Tomography of a strongly depolarized channel: unitarity collapses.
    const std::size_t levels = exec().config().levels;
    // Build a d-level superop acting as depolarizing on the qubit block.
    const double p = 0.5;
    Mat dep2 = oracle::depolarizing_superop(2, p);
    // Embed: act as dep on the qubit sector, identity elsewhere.
    const std::size_t d2 = levels * levels;
    Mat dep(d2, d2);
    auto idx = [levels](std::size_t i, std::size_t j) { return i + levels * j; };
    for (std::size_t i = 0; i < d2; ++i) dep(i, i) = 1.0;
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            for (std::size_t k = 0; k < 2; ++k)
                for (std::size_t l = 0; l < 2; ++l)
                    dep(idx(i, j), idx(k, l)) = dep2(i + 2 * j, k + 2 * l);
    const auto res = process_tomography_1q(exec(), defaults(), dep, Mat::identity(2), 0,
                                           {.shots = 1 << 15});
    // Depolarizing(0.5): PTM diagonal ~0.5, unitarity ~0.25.
    EXPECT_NEAR(res.ptm(3, 3).real(), 0.5, 0.06);
    EXPECT_NEAR(res.unitarity, 0.25, 0.06);
}

TEST_F(TomographyTest, MitigationImprovesFidelityEstimate) {
    const Mat x_super = exec().schedule_superop_1q(defaults().get("x", {0}), 0);
    const auto with = process_tomography_1q(exec(), defaults(), x_super, g::x(), 0,
                                            {.shots = 1 << 15, .mitigate_readout = true});
    const auto without = process_tomography_1q(exec(), defaults(), x_super, g::x(), 0,
                                               {.shots = 1 << 15, .mitigate_readout = false});
    EXPECT_GT(with.avg_gate_fidelity, without.avg_gate_fidelity);
}

}  // namespace
}  // namespace qoc::rb
