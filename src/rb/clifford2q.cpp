#include "rb/clifford2q.hpp"

#include "contracts/matrix_checks.hpp"

#include <cstdint>
#include <numbers>
#include <stdexcept>

#include "linalg/kron.hpp"
#include "quantum/gates.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::rb {

namespace {
namespace g = quantum::gates;

/// Entangling class representative matrices.
Mat class_matrix(std::size_t cls) {
    switch (cls) {
        case 0: return Mat::identity(4);
        case 1: return g::cx();
        case 2: return g::cx_10() * g::cx();  // iSWAP-like: two CX uses
        case 3: return g::swap();
        default: throw std::logic_error("class_matrix: bad class");
    }
}

std::size_t class_offset(std::size_t cls) {
    // Cumulative offsets for classes of size 576, 5184, 5184, 576.
    switch (cls) {
        case 0: return 0;
        case 1: return 576;
        case 2: return 576 + 5184;
        case 3: return 576 + 5184 + 5184;
        default: throw std::logic_error("class_offset: bad class");
    }
}
}  // namespace

Clifford2Q::Clifford2Q(const Clifford1Q& c1) : c1_(c1) {
    // The axis-cycling set {I, SH, (SH)^2}: SH maps X->Z->Y->X.
    const Mat sh = g::s() * g::h();
    s_set_ = {c1_.identity_index(), c1_.find(sh), c1_.find(sh * sh)};

    // Cache every phase-normalized unitary and hash it for find().  ~3 MB;
    // makes unitary() an indexed read in the RB sequence loop and find()
    // race-free across pool workers.  The keys are hashed in the same
    // fan-out; the map is filled serially in index order.
    unitaries_.resize(kSize);
    std::vector<std::uint64_t> keys(kSize);
    runtime::TaskPool::global().parallel_for(0, kSize, [&](std::size_t i) {
        unitaries_[i] = compute_unitary(i);
        keys[i] = phase_key(unitaries_[i]);
    });
    key_index_.reserve(kSize);
    for (std::size_t i = 0; i < kSize; ++i) {
        contracts::check_unitary(unitaries_[i], "Clifford2Q: group element");
        key_index_.emplace(keys[i], i);
    }
    if (key_index_.size() != kSize) {
        throw std::logic_error("Clifford2Q: coset construction produced duplicates");
    }
}

Clifford2Q::Parts Clifford2Q::split(std::size_t i) const {
    if (i >= kSize) throw std::out_of_range("Clifford2Q: index out of range");
    Parts p{};
    if (i < 576) {
        p.cls = 0;
        p.c_a = i / 24;
        p.c_b = i % 24;
        p.s_i = p.s_j = 0;
        return p;
    }
    if (i < 576 + 5184) {
        p.cls = 1;
        i -= 576;
    } else if (i < 576 + 2 * 5184) {
        p.cls = 2;
        i -= 576 + 5184;
    } else {
        p.cls = 3;
        p.c_a = (i - class_offset(3)) / 24;
        p.c_b = (i - class_offset(3)) % 24;
        p.s_i = p.s_j = 0;
        return p;
    }
    // Classes 1 and 2: i in [0, 5184) = 576 * 9.
    const std::size_t pair = i / 9;     // which (c_a, c_b)
    const std::size_t ss = i % 9;       // which (s_i, s_j)
    p.c_a = pair / 24;
    p.c_b = pair % 24;
    p.s_i = ss / 3;
    p.s_j = ss % 3;
    return p;
}

Mat Clifford2Q::compute_unitary(std::size_t i) const {
    const Parts p = split(i);
    Mat u = linalg::kron(c1_.unitary(p.c_a), c1_.unitary(p.c_b)) * class_matrix(p.cls);
    if (p.cls == 1 || p.cls == 2) {
        u = u * linalg::kron(c1_.unitary(s_set_[p.s_i]), c1_.unitary(s_set_[p.s_j]));
    }
    return phase_normalize(u);
}

std::vector<TwoQubitGate> Clifford2Q::layer_gates(std::size_t c1_index,
                                                  std::size_t qubit) const {
    std::vector<TwoQubitGate> seq;
    for (const BasisGate& bg : c1_.decomposition(c1_index)) {
        seq.push_back(TwoQubitGate{bg.name, {qubit}, bg.param});
    }
    return seq;
}

std::vector<TwoQubitGate> Clifford2Q::entangler_gates(std::size_t cls) {
    std::vector<TwoQubitGate> seq;
    auto add_cx01 = [&] { seq.push_back(TwoQubitGate{"cx", {0, 1}, std::nullopt}); };
    auto add_cx10 = [&] {
        // cx(1,0) = (H (x) H) cx(0,1) (H (x) H); H itself is rz sx rz.
        const double hp = std::numbers::pi / 2.0;
        for (std::size_t q : {0u, 1u}) {
            seq.push_back(TwoQubitGate{"rz", {q}, hp});
            seq.push_back(TwoQubitGate{"sx", {q}, std::nullopt});
            seq.push_back(TwoQubitGate{"rz", {q}, hp});
        }
        add_cx01();
        for (std::size_t q : {0u, 1u}) {
            seq.push_back(TwoQubitGate{"rz", {q}, hp});
            seq.push_back(TwoQubitGate{"sx", {q}, std::nullopt});
            seq.push_back(TwoQubitGate{"rz", {q}, hp});
        }
    };
    switch (cls) {
        case 0: break;
        case 1: add_cx01(); break;
        case 2:
            add_cx01();
            add_cx10();
            break;
        case 3:
            add_cx01();
            add_cx10();
            add_cx01();
            break;
        default: throw std::logic_error("entangler_gates: bad class");
    }
    return seq;
}

std::vector<TwoQubitGate> Clifford2Q::decomposition(std::size_t i) const {
    const Parts p = split(i);
    std::vector<TwoQubitGate> seq;
    const auto append = [&seq](const std::vector<TwoQubitGate>& part) {
        seq.insert(seq.end(), part.begin(), part.end());
    };
    // Matrix order is (c_a (x) c_b) . E . (s (x) s); execution order is the
    // reverse: s-layer first, then the entangler, then the c-layer.
    if (p.cls == 1 || p.cls == 2) {
        append(layer_gates(s_set_[p.s_i], 0));
        append(layer_gates(s_set_[p.s_j], 1));
    }
    append(entangler_gates(p.cls));
    append(layer_gates(p.c_a, 0));
    append(layer_gates(p.c_b, 1));
    return seq;
}

std::size_t Clifford2Q::sample(std::mt19937_64& rng) const {
    std::uniform_int_distribution<std::size_t> dist(0, kSize - 1);
    return dist(rng);
}

std::size_t Clifford2Q::find(const Mat& u) const {
    const auto it = key_index_.find(phase_key(u));
    if (it == key_index_.end() || !linalg::equal_up_to_phase(u, unitaries_[it->second], 1e-6)) {
        throw std::invalid_argument("Clifford2Q::find: matrix is not a 2Q Clifford");
    }
    return it->second;
}

std::size_t Clifford2Q::identity_index() const {
    return c1_.identity_index() * 24 + c1_.identity_index();
}

std::size_t Clifford2Q::cx_count(std::size_t i) const {
    const Parts p = split(i);
    switch (p.cls) {
        case 0: return 0;
        case 1: return 1;
        case 2: return 2;
        default: return 3;
    }
}

}  // namespace qoc::rb
