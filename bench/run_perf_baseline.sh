#!/usr/bin/env bash
# Runs the kernel microbenchmark suite and records the results as JSON, so a
# perf change can quote before/after numbers from identical invocations:
#
#   bench/run_perf_baseline.sh [build_dir] [output.json] [extra benchmark args]
#
# Defaults: build_dir=build, output=BENCH_kernels.json (repo root).
#
# The build is configured and (re)built here so recorded numbers always come
# from a Release binary of the current tree -- never a stale or Debug one.
# Note: the JSON's "library_build_type" field reports how the *system
# google-benchmark library* was compiled, not this repo; the repo build type
# is pinned below.  The min-time is passed as a plain double -- the pinned
# google-benchmark predates the "0.01s" suffix syntax.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
out="${2:-BENCH_kernels.json}"
shift $(( $# > 2 ? 2 : $# )) || true

# Refuse instrumented build dirs BEFORE the reconfigure below touches them:
# sanitizers and armed contracts change the hot paths, so their numbers must
# never land in a baseline JSON -- and reconfiguring first would both rewrite
# the cache evidence and pollute a sanitizer/contracts dir with Release flags.
if [[ -f "$build_dir/CMakeCache.txt" ]]; then
    for flag in QOC_SANITIZE QOC_SANITIZE_THREAD QOC_SANITIZE_UNDEFINED QOC_CONTRACTS; do
        val="$(sed -n "s/^${flag}:[^=]*=//p" "$build_dir/CMakeCache.txt")"
        if [[ "${val^^}" == "ON" || "${val^^}" == "TRUE" || "$val" == "1" ]]; then
            echo "error: $build_dir was configured with ${flag}=${val}." >&2
            echo "Instrumented builds are not comparable benchmark baselines;" >&2
            echo "use a plain Release dir: bench/run_perf_baseline.sh build-release" >&2
            exit 1
        fi
    done
fi

cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt")"
if [[ "$build_type" != "Release" ]]; then
    echo "error: $build_dir is configured as '${build_type:-<empty>}', not Release." >&2
    echo "Benchmark numbers from non-Release builds are not comparable;" >&2
    echo "use a dedicated build dir: bench/run_perf_baseline.sh build-release" >&2
    exit 1
fi

cmake --build "$build_dir" -j --target bench_perf_kernels >/dev/null

# Pin the qoc::runtime task-pool width so recorded numbers are reproducible
# across machines: default 1 (the serial inline path, bitwise the reference
# configuration); override with QOC_THREADS=N for scaling runs.
export QOC_THREADS="${QOC_THREADS:-1}"
echo "task-pool width: QOC_THREADS=$QOC_THREADS"

# Record the obs metrics registry alongside the timings: the JSONL's final
# {"type":"metrics",...} line snapshots kernel-call and cache-hit counts for
# the exact run the numbers came from.
metrics_out="${out%.json}.metrics.jsonl"
QOC_METRICS="$metrics_out" "$build_dir/bench/bench_perf_kernels" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.05 \
    "$@"

echo "wrote $out (repo build type: $build_type)"
echo "wrote $metrics_out (obs metrics for this run)"

# Optimizer ablation: every pulse_optim method x paper gate x duration,
# plus the box-active and saturated cells (fidelity / iteration / wall-time
# tables, the evidence behind the baseline_pr10 trailer).  Same pinned
# QOC_THREADS as the kernel run so wall times are comparable across records.
ablation_out="${out%.json}.optimizer_ablation.txt"
cmake --build "$build_dir" -j --target bench_ablation_optimizers >/dev/null
"$build_dir/bench/bench_ablation_optimizers" > "$ablation_out"
echo "wrote $ablation_out (solver x gate x duration matrix)"
