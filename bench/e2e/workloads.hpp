/// \file workloads.hpp
/// \brief The four named workloads of `qoc_bench`.  Each one generates its
///        own inputs from the run seed, drives the public API only, and
///        checks its outputs.
///
/// A workload is split into a set-up (timed as `setup_s`) and a sequence of
/// units -- one paper pass, one design batch, one drift day, one fleet day --
/// that the harness runs in order 0, 1, 2, ... until the run's time is up.

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "service/calibration_service.hpp"

namespace qoc::bench {

/// What one unit did and whether its outputs passed the checks.
struct UnitResult {
    std::size_t attempted = 0;  ///< work items (rows, candidates, gates, requests)
    std::size_t failed = 0;     ///< items that threw, were shed or failed a check
    std::vector<std::string> errors;  ///< check failures, human-readable
    /// Deterministic output digests.  A key a later unit reports again must
    /// carry the same value (replayed work reproduces its bits).
    std::vector<std::pair<std::string, std::uint64_t>> digests;
    /// Wall time of the unit's request phase, when it has one (fleet: the
    /// traffic after the drift update); 0 means the whole unit.
    double op_phase_s = 0.0;
    std::vector<double> request_s;  ///< per-request latency (fleet)
    std::vector<service::ResponseStatus> request_status;  ///< index-aligned with request_s
    service::ServiceStats service;  ///< service counters this unit added
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Builds what the units need (devices, fixed pulses, the service).
    virtual void setup() = 0;

    /// Runs unit `u`; units run in order from 0 on one set-up.
    virtual UnitResult run_unit(std::size_t u) = 0;

    /// Most units one set-up supports.
    virtual std::size_t max_units() const { return std::numeric_limits<std::size_t>::max(); }

    /// Units the traced run (and the smoke test) replays: small enough that
    /// no span ring overflows.
    virtual std::size_t trace_units() const = 0;
};

/// Names of the workloads, in `BENCHMARK.json` order.
const std::vector<std::string>& workload_names();

/// `reduced` selects the trace/smoke scale of the design batch (2 optimizer
/// seeds instead of 16); the other workloads scale by unit count alone.
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool reduced);

}  // namespace qoc::bench
