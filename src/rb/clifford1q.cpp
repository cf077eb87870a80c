#include "rb/clifford1q.hpp"

#include "contracts/matrix_checks.hpp"

#include <cmath>
#include <deque>
#include <numbers>
#include <stdexcept>
#include <unordered_map>

#include "quantum/gates.hpp"
#include "util/fnv1a.hpp"

namespace qoc::rb {

void phase_normalize_inplace(Mat& u) {
    // Reference entry: the largest-magnitude element (ties broken by index
    // order, deterministic for exact group elements).
    std::size_t kmax = 0;
    double vmax = 0.0;
    for (std::size_t k = 0; k < u.data().size(); ++k) {
        const double v = std::abs(u.data()[k]);
        if (v > vmax + 1e-9) {
            vmax = v;
            kmax = k;
        }
    }
    if (vmax < 1e-12) return;
    const linalg::cplx phase = u.data()[kmax] / vmax;
    for (auto& v : u.data()) v /= phase;
}

Mat phase_normalize(const Mat& u) {
    Mat out = u;
    phase_normalize_inplace(out);
    return out;
}

std::uint64_t phase_key(const Mat& u) {
    const Mat n = phase_normalize(u);
    util::Fnv1a h;
    for (const auto& v : n.data()) {
        // Round to the 1e-6 grid; rounding to an integer absorbs -0, and
        // llround keeps out-of-range or NaN entries defined (such a matrix
        // is no Clifford, and find() rejects it).
        h.i64(std::llround(v.real() * 1e6));
        h.i64(std::llround(v.imag() * 1e6));
    }
    return h.digest();
}

Clifford1Q::Clifford1Q() {
    namespace g = quantum::gates;

    // Enumerate the group by closure over {H, S}, keyed by phase_key.  A
    // key collision between two elements would merge them; the group-order
    // check below catches it.
    key_index_.reserve(kSize);
    std::deque<Mat> frontier;
    auto add = [&](const Mat& u) -> bool {
        const std::uint64_t key = phase_key(u);
        if (key_index_.count(key)) return false;
        key_index_.emplace(key, unitaries_.size());
        unitaries_.push_back(phase_normalize(u));
        frontier.push_back(unitaries_.back());
        return true;
    };
    add(Mat::identity(2));
    while (!frontier.empty()) {
        const Mat u = frontier.front();
        frontier.pop_front();
        add(g::h() * u);
        add(g::s() * u);
    }
    if (unitaries_.size() != kSize) {
        throw std::logic_error("Clifford1Q: generated group has wrong order");
    }
    identity_ = key_index_.at(phase_key(Mat::identity(2)));
    for (const Mat& u : unitaries_) contracts::check_unitary(u, "Clifford1Q: group element");

    // Multiplication and inverse tables.
    mult_table_.assign(kSize * kSize, 0);
    inv_table_.assign(kSize, 0);
    for (std::size_t i = 0; i < kSize; ++i) {
        for (std::size_t j = 0; j < kSize; ++j) {
            mult_table_[i * kSize + j] = key_index_.at(phase_key(unitaries_[i] * unitaries_[j]));
        }
        inv_table_[i] = key_index_.at(phase_key(unitaries_[i].adjoint()));
    }

    // Minimal basis-gate decompositions via BFS over {rz(k pi/2), sx, x},
    // expanding cheapest (fewest physical pulses) first.
    struct Node {
        Mat u;
        std::vector<BasisGate> seq;
        std::size_t pulses;
    };
    const double half_pi = std::numbers::pi / 2.0;
    const std::vector<std::pair<BasisGate, Mat>> alphabet = {
        {{"rz", half_pi}, g::rz(half_pi)},
        {{"rz", std::numbers::pi}, g::rz(std::numbers::pi)},
        {{"rz", -half_pi}, g::rz(-half_pi)},
        {{"sx", std::nullopt}, g::sx()},
        {{"x", std::nullopt}, g::x()},
    };

    decomps_.assign(kSize, {});
    std::vector<bool> found(kSize, false);
    std::size_t n_found = 0;

    std::deque<Node> queue;
    queue.push_back(Node{Mat::identity(2), {}, 0});
    std::unordered_map<std::uint64_t, std::size_t> best_pulses;
    best_pulses[phase_key(Mat::identity(2))] = 0;

    while (!queue.empty() && n_found < kSize) {
        Node node = std::move(queue.front());
        queue.pop_front();
        const auto it = key_index_.find(phase_key(node.u));
        if (it != key_index_.end() && !found[it->second]) {
            found[it->second] = true;
            decomps_[it->second] = node.seq;
            ++n_found;
        }
        if (node.seq.size() >= 5) continue;  // every Clifford fits in 5 ops
        for (const auto& [gate, mat] : alphabet) {
            // Avoid consecutive rz gates (they merge) to keep BFS small.
            if (gate.name == "rz" && !node.seq.empty() && node.seq.back().name == "rz") continue;
            Node next;
            next.u = mat * node.u;
            next.seq = node.seq;
            next.seq.push_back(gate);
            next.pulses = node.pulses + (gate.name == "rz" ? 0 : 1);
            const std::uint64_t key = phase_key(next.u);
            const auto bit = best_pulses.find(key);
            if (bit != best_pulses.end() && bit->second <= next.pulses) continue;
            best_pulses[key] = next.pulses;
            queue.push_back(std::move(next));
        }
    }
    if (n_found != kSize) {
        throw std::logic_error("Clifford1Q: BFS failed to decompose all elements");
    }

    // Verify every decomposition reproduces its unitary up to phase.
    for (std::size_t i = 0; i < kSize; ++i) {
        Mat u = Mat::identity(2);
        for (const auto& gate : decomps_[i]) {
            if (gate.name == "rz") {
                u = g::rz(*gate.param) * u;
            } else if (gate.name == "sx") {
                u = g::sx() * u;
            } else {
                u = g::x() * u;
            }
        }
        if (!linalg::equal_up_to_phase(u, unitaries_[i], 1e-9)) {
            throw std::logic_error("Clifford1Q: decomposition mismatch");
        }
    }
}

std::size_t Clifford1Q::find(const Mat& u) const {
    const auto it = key_index_.find(phase_key(u));
    if (it == key_index_.end() || !linalg::equal_up_to_phase(u, unitaries_[it->second], 1e-6)) {
        throw std::invalid_argument("Clifford1Q::find: matrix is not a 1Q Clifford");
    }
    return it->second;
}

std::size_t Clifford1Q::pulse_count(std::size_t i) const {
    std::size_t n = 0;
    for (const auto& gate : decomps_.at(i)) n += (gate.name != "rz");
    return n;
}

}  // namespace qoc::rb
