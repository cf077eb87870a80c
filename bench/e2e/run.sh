#!/usr/bin/env bash
# Builds qoc_bench from this checkout (Release, in .bench_build/e2e) and runs
# it with a pinned, uninstrumented environment:
#
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#   bench/e2e/run.sh compare <parent-history.jsonl> <change-history.jsonl>
#   bench/e2e/run.sh smoke
#
# Benchmark runs append their record to bench/e2e/history.jsonl.  Build
# output goes to stderr, so the last stdout line is the run's JSON result.
set -euo pipefail

cd "$(dirname "$0")/../.."
build_dir=".bench_build/e2e"

if [[ ! -f src/CMakeLists.txt ]]; then
    echo "error: $(pwd) holds no qoc sources (src/CMakeLists.txt); nothing to build." >&2
    exit 1
fi

# Refuse instrumented or non-Release build dirs before the configure below
# touches them: sanitizers and armed contracts change the hot paths, so their
# numbers must never land in the history.
if [[ -f "$build_dir/CMakeCache.txt" ]]; then
    for flag in QOC_SANITIZE QOC_SANITIZE_THREAD QOC_SANITIZE_UNDEFINED QOC_CONTRACTS; do
        val="$(sed -n "s/^${flag}:[^=]*=//p" "$build_dir/CMakeCache.txt")"
        if [[ "${val^^}" == "ON" || "${val^^}" == "TRUE" || "$val" == "1" ]]; then
            echo "error: $build_dir was configured with ${flag}=${val}; remove it." >&2
            exit 1
        fi
    done
    build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt")"
    if [[ "$build_type" != "Release" ]]; then
        echo "error: $build_dir is configured as '${build_type:-<empty>}', not Release." >&2
        exit 1
    fi
else
    cmake -S bench/e2e -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build_dir" -j 4 --target qoc_bench >&2

# One process, at most 4 threads: the caller plus 3 pool workers.  No trace
# or metrics files and no snapshot thread: the traced run enables in-memory
# tracing itself.
export QOC_THREADS=4
unset QOC_TRACE QOC_METRICS QOC_SNAPSHOT_MS
echo "run.sh: QOC_THREADS=$QOC_THREADS nproc=$(nproc)" >&2

case "${1:-}" in
    compare | smoke) exec "$build_dir/qoc_bench" "$@" ;;
esac
# A checkout without .git records "unknown"; never look above this checkout.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$(pwd)")" git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build_dir/qoc_bench" "$@" --history bench/e2e/history.jsonl --commit "$commit"
