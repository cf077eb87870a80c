/// \file self_time.hpp
/// \brief Exclusive (self) time of trace spans whose children may run on
///        other threads.
///
/// A span's self time is its duration minus the part of its interval that
/// at least one child covers.  Children are found by parent id, not by
/// thread: the task runtime reparents spans opened inside a pool task to the
/// submitting span, so a parent on the main thread may have several children
/// running at once on workers.  Overlapping children are therefore merged
/// into a union first (never summed), and each child interval is clipped to
/// the parent's, so a child that outlives its parent cannot push the
/// parent's self time below zero.

#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace qoc::bench {

/// One span as the self-time computation needs it (ns timestamps).
struct SpanRec {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t t0 = 0;
    std::uint64_t dur = 0;
};

/// Length of the union of `[b, e)` intervals after clipping each to
/// `[lo, hi)`.  Sorts `iv` in place.
inline std::uint64_t clipped_union_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>>& iv,
                                      std::uint64_t lo, std::uint64_t hi) {
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t run_b = 0, run_e = 0;
    bool open = false;
    for (auto [b, e] : iv) {
        b = std::max(b, lo);
        e = std::min(e, hi);
        if (b >= e) continue;
        if (open && b <= run_e) {
            run_e = std::max(run_e, e);
            continue;
        }
        if (open) covered += run_e - run_b;
        run_b = b;
        run_e = e;
        open = true;
    }
    if (open) covered += run_e - run_b;
    return covered;
}

/// Self time of every span, index-aligned with `spans`.
inline std::vector<std::uint64_t> self_times_ns(const std::vector<SpanRec>& spans) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
    for (const SpanRec& s : spans) {
        if (s.parent == 0) continue;
        const auto it = index.find(s.parent);
        if (it != index.end()) children[it->second].emplace_back(s.t0, s.t0 + s.dur);
    }
    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRec& s = spans[i];
        self[i] = s.dur - clipped_union_ns(children[i], s.t0, s.t0 + s.dur);
    }
    return self;
}

}  // namespace qoc::bench
