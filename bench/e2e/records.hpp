/// \file records.hpp
/// \brief Run records of `qoc_bench`: the result line the benchmark ends
///        with, the append-only history file, and the metric declarations of
///        `BENCHMARK.json`.
///
/// The history file holds one schema-versioned JSON object per line and is
/// only ever appended to.  Like tools/qoc_obs_report.cpp, the readers here
/// are not general JSON parsers: they scan for `"key":` patterns in the
/// flat layout this file writes (and in BENCHMARK.json's fixed keys).

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace qoc::bench {

inline constexpr int kHistorySchema = 1;

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;  ///< observations the value summarizes
};

struct RunRecord {
    std::string commit = "unknown";
    std::string build_type;
    std::string workload;
    std::size_t qoc_threads = 0;  ///< task-pool width the run used
    std::size_t nproc = 0;
    std::uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;  ///< the result line's metrics
    std::vector<Metric> extras;   ///< printed and kept in the history only
    std::vector<std::pair<std::string, std::uint64_t>> digests;
};

/// The benchmark's last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.
std::string result_line(const RunRecord& rec);

/// One history line (no trailing newline).
std::string history_line(const RunRecord& rec);

/// Appends `history_line(rec)` to `path`; throws std::runtime_error when the
/// file cannot be opened or written.
void append_history(const std::string& path, const RunRecord& rec);

/// Every record of a history file, in file order.  Lines of another schema
/// are skipped.  Throws std::runtime_error when the file cannot be opened.
std::vector<RunRecord> read_history(const std::string& path);

/// One metric as BENCHMARK.json declares it.
struct MetricSpec {
    std::string name;
    std::string unit;
    bool higher_is_better = false;
    double bound = 0.0;  ///< end-to-end metrics only
};

struct BenchmarkSpec {
    std::vector<std::string> workloads;
    std::vector<MetricSpec> end_to_end;
    std::vector<MetricSpec> per_layer;
};

/// Reads BENCHMARK.json.  Throws std::runtime_error when it cannot be
/// opened or lacks a section.
BenchmarkSpec read_benchmark_spec(const std::string& path);

}  // namespace qoc::bench
