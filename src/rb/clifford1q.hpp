/// \file clifford1q.hpp
/// \brief The single-qubit Clifford group (24 elements) with basis-gate
///        decompositions for pulse-level execution.
///
/// Elements are generated from {H, S}, phase-normalized, and each is given
/// a minimal decomposition into the IBM basis {rz(k pi/2) (virtual), sx, x}
/// found by breadth-first search (fewest physical pulses first).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "linalg/matrix.hpp"

namespace qoc::rb {

using linalg::Mat;

/// One basis-gate application in a Clifford decomposition.
struct BasisGate {
    std::string name;              ///< "rz", "sx" or "x"
    std::optional<double> param;   ///< angle for rz
};

class Clifford1Q {
public:
    /// Builds the group table (deterministic; ~instant).
    Clifford1Q();

    static constexpr std::size_t kSize = 24;

    std::size_t size() const { return kSize; }

    /// Phase-normalized unitary of element `i`.
    const Mat& unitary(std::size_t i) const { return unitaries_.at(i); }

    /// Basis-gate decomposition of element `i` (already verified against the
    /// unitary up to global phase at construction).
    const std::vector<BasisGate>& decomposition(std::size_t i) const { return decomps_.at(i); }

    /// Group product: index of element i * element j (i applied after j).
    std::size_t multiply(std::size_t i, std::size_t j) const {
        return mult_table_[i * kSize + j];
    }

    /// Index of the inverse element.
    std::size_t inverse(std::size_t i) const { return inv_table_[i]; }

    /// Index of the group element equal (up to phase) to `u`, via the
    /// canonical-phase hash built at construction; throws
    /// `std::invalid_argument` when `u` is not a Clifford.
    std::size_t find(const Mat& u) const;

    /// Index of the identity element.
    std::size_t identity_index() const { return identity_; }

    /// Number of physical (sx / x) pulses in element i's decomposition.
    std::size_t pulse_count(std::size_t i) const;

private:
    std::vector<Mat> unitaries_;
    std::vector<std::vector<BasisGate>> decomps_;
    std::vector<std::size_t> mult_table_;
    std::vector<std::size_t> inv_table_;
    std::unordered_map<std::uint64_t, std::size_t> key_index_;  ///< phase_key -> element
    std::size_t identity_ = 0;
};

/// Phase-normalizes a matrix: divides by the phase of its largest entry so
/// equal-up-to-phase matrices map to the same representative.
Mat phase_normalize(const Mat& u);

/// In-place variant of `phase_normalize` (no allocation).
void phase_normalize_inplace(Mat& u);

/// 64-bit canonical-phase hash: FNV-1a over the phase-normalized entries
/// rounded to a 1e-6 grid.  Equal-up-to-phase matrices map to the same key.
/// The group tables are built on it, and recovery lookups hash the net
/// ideal unitary with it and verify the candidate exactly.
std::uint64_t phase_key(const Mat& u);

}  // namespace qoc::rb
