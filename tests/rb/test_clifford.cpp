#include "rb/clifford1q.hpp"
#include "rb/clifford2q.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <set>

#include "linalg/kron.hpp"
#include "oracles/quantum.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"

namespace qoc::rb {
namespace {

namespace g = quantum::gates;

class CliffordTest : public ::testing::Test {
protected:
    static const Clifford1Q& c1() {
        static Clifford1Q instance;
        return instance;
    }
    static const Clifford2Q& c2() {
        static Clifford2Q instance(c1());
        return instance;
    }
};

TEST_F(CliffordTest, GroupOrder24) {
    EXPECT_EQ(c1().size(), 24u);
    std::set<std::uint64_t> keys;
    for (std::size_t i = 0; i < 24; ++i) keys.insert(phase_key(c1().unitary(i)));
    EXPECT_EQ(keys.size(), 24u);
}

TEST_F(CliffordTest, ContainsStandardGates) {
    EXPECT_NO_THROW(c1().find(g::x()));
    EXPECT_NO_THROW(c1().find(g::y()));
    EXPECT_NO_THROW(c1().find(g::z()));
    EXPECT_NO_THROW(c1().find(g::h()));
    EXPECT_NO_THROW(c1().find(g::s()));
    EXPECT_NO_THROW(c1().find(g::sx()));
    EXPECT_THROW(c1().find(g::t()), std::invalid_argument);
}

TEST_F(CliffordTest, MultiplicationTableConsistent) {
    std::mt19937_64 rng(5);
    std::uniform_int_distribution<std::size_t> dist(0, 23);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t i = dist(rng), j = dist(rng);
        const std::size_t k = c1().multiply(i, j);
        EXPECT_TRUE(linalg::equal_up_to_phase(c1().unitary(i) * c1().unitary(j),
                                              c1().unitary(k), 1e-9));
    }
}

TEST_F(CliffordTest, InverseTableConsistent) {
    for (std::size_t i = 0; i < 24; ++i) {
        EXPECT_EQ(c1().multiply(i, c1().inverse(i)), c1().identity_index());
        EXPECT_EQ(c1().multiply(c1().inverse(i), i), c1().identity_index());
    }
}

TEST_F(CliffordTest, DecompositionsVerified) {
    // The constructor already asserts decomposition == unitary up to phase;
    // spot-check pulse counts are small (<= 3 physical pulses).
    for (std::size_t i = 0; i < 24; ++i) {
        EXPECT_LE(c1().pulse_count(i), 3u) << "Clifford " << i;
    }
    EXPECT_EQ(c1().pulse_count(c1().identity_index()), 0u);
}

TEST_F(CliffordTest, RandomWordsStayInGroup) {
    std::mt19937_64 rng(17);
    std::uniform_int_distribution<std::size_t> dist(0, 23);
    std::size_t acc = c1().identity_index();
    Mat mat_acc = Mat::identity(2);
    for (int step = 0; step < 100; ++step) {
        const std::size_t c = dist(rng);
        acc = c1().multiply(c, acc);
        mat_acc = phase_normalize(c1().unitary(c) * mat_acc);
    }
    EXPECT_TRUE(linalg::equal_up_to_phase(mat_acc, c1().unitary(acc), 1e-8));
}

TEST_F(CliffordTest, TwoQubitGroupOrder) {
    // find() builds the full lookup and throws on duplicates, so a single
    // successful lookup validates all 11520 elements are distinct.
    EXPECT_NO_THROW(c2().find(g::cx()));
    EXPECT_EQ(c2().size(), 11520u);
}

TEST_F(CliffordTest, TwoQubitContainsNamedGates) {
    EXPECT_NO_THROW(c2().find(g::cx()));
    EXPECT_NO_THROW(c2().find(oracle::cz()));
    EXPECT_NO_THROW(c2().find(g::swap()));
    EXPECT_NO_THROW(c2().find(oracle::iswap()));
    EXPECT_NO_THROW(c2().find(linalg::kron(g::h(), g::s())));
}

TEST_F(CliffordTest, TwoQubitIdentityIndex) {
    const std::size_t id = c2().identity_index();
    EXPECT_TRUE(linalg::equal_up_to_phase(c2().unitary(id), Mat::identity(4), 1e-10));
}

TEST_F(CliffordTest, TwoQubitDecompositionMatchesUnitary) {
    std::mt19937_64 rng(23);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t i = c2().sample(rng);
        Mat u = Mat::identity(4);
        for (const TwoQubitGate& gate : c2().decomposition(i)) {
            Mat m;
            if (gate.name == "rz") {
                m = quantum::op_on_qubit(g::rz(*gate.param), gate.qubits[0], 2);
            } else if (gate.name == "sx") {
                m = quantum::op_on_qubit(g::sx(), gate.qubits[0], 2);
            } else if (gate.name == "x") {
                m = quantum::op_on_qubit(g::x(), gate.qubits[0], 2);
            } else if (gate.name == "cx") {
                m = g::cx();
            } else {
                FAIL() << "unknown gate " << gate.name;
            }
            u = m * u;
        }
        EXPECT_TRUE(linalg::equal_up_to_phase(u, c2().unitary(i), 1e-8)) << "element " << i;
    }
}

TEST_F(CliffordTest, TwoQubitInverse) {
    std::mt19937_64 rng(31);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t i = c2().sample(rng);
        const std::size_t inv = c2().inverse(i);
        EXPECT_TRUE(linalg::equal_up_to_phase(c2().unitary(i) * c2().unitary(inv),
                                              Mat::identity(4), 1e-8));
    }
}

TEST_F(CliffordTest, TwoQubitCxCountByClass) {
    EXPECT_EQ(c2().cx_count(0), 0u);             // single-qubit class
    EXPECT_EQ(c2().cx_count(576), 1u);           // CNOT class start
    EXPECT_EQ(c2().cx_count(576 + 5184), 2u);    // iSWAP class start
    EXPECT_EQ(c2().cx_count(11520 - 1), 3u);     // SWAP class
    EXPECT_THROW(c2().cx_count(11520), std::out_of_range);
}

TEST_F(CliffordTest, PhaseHashInvariantUnderGlobalPhase) {
    const Mat u = g::h();
    const Mat v = std::exp(linalg::cplx{0.0, 1.234}) * u;
    EXPECT_EQ(phase_key(u), phase_key(v));
    EXPECT_NE(phase_key(g::h()), phase_key(g::x()));
}

TEST_F(CliffordTest, FindRejectsNonFiniteAndHugeMatrices) {
    // Entries far outside the 1e-6 key grid's int64 range, or NaN/Inf, hash
    // to some key without undefined behaviour and are then rejected.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double v : {1e300, -1e300, inf, nan}) {
        Mat u = g::x();
        u(0, 1) = linalg::cplx{v, 0.0};
        (void)phase_key(u);
        EXPECT_THROW(c1().find(u), std::invalid_argument) << v;
    }
}

TEST_F(CliffordTest, SamplingCoversClasses) {
    std::mt19937_64 rng(7);
    std::array<int, 4> class_counts{};
    for (int i = 0; i < 4000; ++i) {
        const std::size_t idx = c2().sample(rng);
        if (idx < 576) class_counts[0]++;
        else if (idx < 576 + 5184) class_counts[1]++;
        else if (idx < 576 + 2 * 5184) class_counts[2]++;
        else class_counts[3]++;
    }
    // Expected fractions 5%, 45%, 45%, 5%.
    EXPECT_NEAR(class_counts[0] / 4000.0, 0.05, 0.02);
    EXPECT_NEAR(class_counts[1] / 4000.0, 0.45, 0.04);
    EXPECT_NEAR(class_counts[2] / 4000.0, 0.45, 0.04);
    EXPECT_NEAR(class_counts[3] / 4000.0, 0.05, 0.02);
}

}  // namespace
}  // namespace qoc::rb
