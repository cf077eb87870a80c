/// `GateSet2Q` builds each 2Q Clifford superop as C_b . C_a . E_cls . S_j .
/// S_i from memoized layer superops.  The oracle here is the plain
/// gate-by-gate composition of the element's full decomposition, built from
/// the same pulse-level x / sx / cx superops and exact virtual-Z rotations;
/// the two differ only in floating-point association.

#include "rb/rb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <vector>

#include "device/calibration.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::rb {
namespace {

/// The gate-by-gate composition: one 16x16 product per basis gate.
class GateByGate2Q {
public:
    GateByGate2Q(const device::PulseExecutor& exec, const pulse::InstructionScheduleMap& gates)
        : exec_(exec) {
        for (std::size_t q = 0; q < 2; ++q) {
            const pulse::Schedule& xs = gates.get("x", {q});
            const pulse::Schedule& sxs = gates.get("sx", {q});
            const std::size_t nx = xs.total_duration();
            const std::size_t nsx = sxs.total_duration();
            const std::vector<std::complex<double>> zx(nx), zsx(nsx);
            const auto xq = xs.channel_samples(pulse::drive_channel(q), nx);
            const auto sxq = sxs.channel_samples(pulse::drive_channel(q), nsx);
            x_[q] = q == 0 ? exec.layer_superop_2q(xq, zx, zx) : exec.layer_superop_2q(zx, xq, zx);
            sx_[q] = q == 0 ? exec.layer_superop_2q(sxq, zsx, zsx)
                            : exec.layer_superop_2q(zsx, sxq, zsx);
        }
        cx_ = exec.schedule_superop_2q(gates.get("cx", {0, 1}));
    }

    Mat compose(const std::vector<TwoQubitGate>& seq) const {
        Mat total = Mat::identity(16);
        for (const TwoQubitGate& g : seq) {
            const std::size_t q = g.qubits[0];
            if (g.name == "rz") {
                total = exec_.rz_superop_2q(*g.param, q) * total;
            } else if (g.name == "sx") {
                total = sx_[q] * total;
            } else if (g.name == "x") {
                total = x_[q] * total;
            } else {
                EXPECT_EQ(g.name, "cx");
                total = cx_ * total;
            }
        }
        return total;
    }

private:
    const device::PulseExecutor& exec_;
    Mat x_[2], sx_[2], cx_;
};

TEST(GateSet2QLayers, EveryElementMatchesGateByGateComposition) {
    const device::PulseExecutor exec(device::ibmq_montreal());
    const auto defaults = device::build_default_gates(exec);
    const Clifford1Q c1;
    const Clifford2Q c2(c1);
    const GateSet2Q gates(exec, defaults, c2);
    const GateByGate2Q oracle(exec, defaults);

    std::vector<double> max_diff(Clifford2Q::kSize);
    runtime::TaskPool::global().parallel_for(0, Clifford2Q::kSize, [&](std::size_t i) {
        const Mat want = oracle.compose(c2.decomposition(i));
        const Mat& got = gates.clifford_superop(i);
        double d = 0.0;
        for (std::size_t e = 0; e < want.data().size(); ++e) {
            d = std::max(d, std::abs(want.data()[e] - got.data()[e]));
        }
        max_diff[i] = d;
    });
    const auto worst = std::max_element(max_diff.begin(), max_diff.end());
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3e", *worst);
    RecordProperty("max_abs_diff", buf);
    EXPECT_LE(*worst, 1e-13) << "element " << (worst - max_diff.begin());
}

}  // namespace
}  // namespace qoc::rb
