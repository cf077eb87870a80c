/// \file compare.hpp
/// \brief `qoc_bench compare`: the regression/gain verdict between two sets
///        of runs of one benchmark.

#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace qoc::bench {

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method).  `values` must be sorted and non-empty.
struct Quartiles {
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(const std::vector<double>& sorted);

/// Compares the untraced runs of two history files against the end-to-end
/// bounds of `benchmark_json` and prints, per (metric, workload): both
/// sides' medians and quartiles, the change's win fraction over the run
/// pairs, and a verdict (improved / no-change / regressed / unresolved);
/// then, per digest, whether every run agreed.  Returns 0 unless a metric
/// regressed or a file could not be read.
int run_compare(const std::string& parent_history, const std::string& change_history,
                const std::string& benchmark_json, std::FILE* out);

}  // namespace qoc::bench
