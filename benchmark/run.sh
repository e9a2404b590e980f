#!/usr/bin/env bash
# Runs one benchmark workload and prints its result as the last line of
# standard output (one JSON object: correct, attempted, failed, metrics).
#
#   bash benchmark/run.sh --workload NAME --seconds S [--seed N] [--trace 0|1]
#
# Workloads: paper-sweep, mc-ensemble, serve-mixed, fabric-tcp (README.md).
# S is the measured time per run; BENCHMARK.json's run_seconds is the
# standard value.
# --trace 1 runs the traced pass and prints the per-layer metrics instead of
# the end-to-end ones; spans go to benchmark/out/trace-<workload>.json.
#
# The program is built from source (Release) into .bench_build/ at the
# repository root on first use; later runs rebuild only what changed. All
# scratch files (sockets, journals, daemon logs) live under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workload=""
seed=42
seconds=""
trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    --trace) trace="${2:?}"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ -z "$workload" || -z "$seconds" ]]; then
  echo "run.sh: --workload and --seconds are required" >&2
  exit 2
fi
for dir in src tools; do
  if [[ ! -f "$dir/CMakeLists.txt" ]]; then
    echo "run.sh: $dir/ is missing; the benchmark builds the program from source" >&2
    exit 1
  fi
done

build="$root/.bench_build/cmake"
# Compiler temporaries stay inside the checkout too.
export TMPDIR="$root/.bench_build/tmp"
mkdir -p "$build" "$TMPDIR"
log="$root/.bench_build/build.log"
generator=()
if command -v ninja >/dev/null 2>&1 && [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=(-G Ninja)
fi
jobs="$(nproc 2>/dev/null || echo 4)"
if ! { cmake -S benchmark -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$jobs"; } >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi

# The ceiling keeps git from adopting a repository that merely encloses an
# exported (non-git) checkout.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
          git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
work="$root/.bench_build/run"
rm -rf "$work"
mkdir -p "$work" benchmark/out

# The benchmark leads its own process group, so whatever it started (the
# serve daemon, fleet processes) goes down with it even if it crashes.
setsid "$build/redspot-bench" \
  --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
  --bin-dir "$build/redspot/tools" --work-dir ".bench_build/run" \
  --out-dir "benchmark/out" --golden "benchmark/golden.txt" --commit "$commit" &
bench=$!
trap 'kill -TERM -- "-$bench" 2>/dev/null' INT TERM
rc=0
wait "$bench" || rc=$?
kill -KILL -- "-$bench" 2>/dev/null || true
exit "$rc"
