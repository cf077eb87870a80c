/// \file layers.hpp
/// \brief Per-layer metrics of a traced run.
///
/// The traced run replays a few units with `qoc::obs` tracing and metrics on.
/// Time per layer comes from spans: the benchmark's own spans around each
/// public call it makes (`bench.*`) plus the spans the program already emits
/// below them (`pipeline.*`, `executor.*`, `grape.objective`, `rb.seq*`,
/// `service.request`).  Work per layer comes from the program's counters and
/// histograms.  Shares are of the traced unit wall time (the `bench.unit`
/// root spans); with a pool of N threads busy layers can sum to N x 100 %.

#pragma once

#include <array>
#include <cstdio>
#include <vector>

#include "obs/obs.hpp"
#include "records.hpp"
#include "service/calibration_service.hpp"

namespace qoc::bench {

/// The counters and the two histograms the layer metrics read.
struct ObsMark {
    std::array<std::uint64_t, static_cast<std::size_t>(obs::Cnt::kCount)> counters{};
    obs::HistSnapshot queue_wait;
    obs::HistSnapshot line_search_evals;
};

/// Their current values.
ObsMark obs_mark();

/// What they counted between two marks.
ObsMark obs_delta(const ObsMark& before, const ObsMark& after);

struct TraceCapture {
    std::vector<obs::TraceEvent> events;
    std::uint64_t dropped = 0;
    ObsMark counted;                ///< over the traced units
    service::ServiceStats service;  ///< summed over the traced units
    std::size_t units = 0;
    double traced_unit_s = 0.0;    ///< median traced unit
    double untraced_unit_s = 0.0;  ///< median of the same units, untraced
};

/// The per-layer metrics, in `BENCHMARK.json` order.
std::vector<Metric> layer_metrics(const TraceCapture& cap);

/// Human-readable table: per span name, then per layer.
void print_layer_table(std::FILE* out, const TraceCapture& cap);

}  // namespace qoc::bench
