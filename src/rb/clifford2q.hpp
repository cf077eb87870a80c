/// \file clifford2q.hpp
/// \brief The two-qubit Clifford group (11520 elements) via the standard
///        coset construction used in randomized-benchmarking practice:
///
///   C2 = (c_a (x) c_b) . E_k . (s_i (x) s_j)
///
/// with c from the 24 single-qubit Cliffords, E_k one of four entangling
/// classes {I, CX, CX.CXr (iSWAP-like), SWAP} and s from the 3-element
/// axis-cycling set {I, SH, (SH)^2}.  Class sizes 576 / 5184 / 5184 / 576
/// sum to 11520 and every element is distinct (verified in tests).

#pragma once

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "rb/clifford1q.hpp"

namespace qoc::rb {

/// One gate in a 2-qubit decomposition.
struct TwoQubitGate {
    std::string name;             ///< "rz", "sx", "x" or "cx"
    std::vector<std::size_t> qubits;
    std::optional<double> param;
};

class Clifford2Q {
public:
    /// Builds the group: all 11520 phase-normalized unitaries plus the
    /// canonical-phase hash index used by `find` (a few ms; removes the
    /// lazily-built lookup that raced when `find` was first hit inside an
    /// OpenMP sequence loop).
    explicit Clifford2Q(const Clifford1Q& c1);

    static constexpr std::size_t kSize = 11520;

    std::size_t size() const { return kSize; }

    /// Phase-normalized 4x4 unitary of element `i` (cached at construction).
    const Mat& unitary(std::size_t i) const { return unitaries_.at(i); }

    /// Decomposition into {rz, sx, x} on either qubit plus cx(0,1) /
    /// cx(1,0); cx(1,0) is emitted as h-conjugated cx(0,1) so only the
    /// native direction is required.  It is the concatenation, in execution
    /// order, of `layer_gates(axis_cycle(s_i), 0)`, `layer_gates(
    /// axis_cycle(s_j), 1)` (classes 1 and 2 only), `entangler_gates(cls)`,
    /// `layer_gates(c_a, 0)` and `layer_gates(c_b, 1)` for `split(i)`.
    std::vector<TwoQubitGate> decomposition(std::size_t i) const;

    /// Coset coordinates of an element: (c_a (x) c_b) . E_cls . (s_i (x) s_j).
    struct Parts {
        std::size_t c_a, c_b;   ///< post single-qubit layer (Clifford1Q indices)
        std::size_t cls;        ///< entangling class 0..3
        std::size_t s_i, s_j;   ///< axis-cycling layer (0..2; classes 1, 2 only)
    };
    Parts split(std::size_t i) const;

    /// Clifford1Q index of axis-cycling element `s` (0..2): I, SH, (SH)^2.
    std::size_t axis_cycle(std::size_t s) const { return s_set_.at(s); }

    /// Gates of single-qubit Clifford `c1_index` played on `qubit`.
    std::vector<TwoQubitGate> layer_gates(std::size_t c1_index, std::size_t qubit) const;

    /// Gates of entangling class `cls`: none, cx, cx.cx(1,0), cx.cx(1,0).cx.
    static std::vector<TwoQubitGate> entangler_gates(std::size_t cls);

    /// Uniformly random element index.
    std::size_t sample(std::mt19937_64& rng) const;

    /// Index of the element equal (up to phase) to `u`, via one
    /// canonical-phase hash plus an exact verification of the candidate.
    /// Thread-safe (the index is immutable after construction).  Throws when
    /// not a Clifford.
    std::size_t find(const Mat& u) const;

    /// Index of the inverse of element `i`.
    std::size_t inverse(std::size_t i) const { return find(unitary(i).adjoint()); }

    std::size_t identity_index() const;

    /// Number of cx applications in the decomposition (0, 1, 2 or 3).
    std::size_t cx_count(std::size_t i) const;

private:
    Mat compute_unitary(std::size_t i) const;

    const Clifford1Q& c1_;
    std::vector<std::size_t> s_set_;  ///< indices of {I, SH, (SH)^2} in C1
    std::vector<Mat> unitaries_;      ///< all kSize phase-normalized unitaries
    std::unordered_map<std::uint64_t, std::size_t> key_index_;  ///< phase_key -> element
};

}  // namespace qoc::rb
