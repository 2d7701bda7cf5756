#!/usr/bin/env bash
# CI: wall-clock performance gate for the event core and submission path.
#
# Builds Release, runs bench/nvsh_perf with --json, writes the fresh document
# to BENCH_perf.json in the build dir, and compares each mode's wall-clock
# rate against the checked-in baseline (BENCH_perf.json at the repo root):
# events/sec for the engine and io modes, IOs/sec (wall_iops) for stack
# mode, whose events per IO fall whenever the simulator stops simulating
# work it can skip (idle poll rounds). A mode that regresses by more than
# the tolerance fails the gate.
#
# Wall-clock numbers are machine-dependent, so the tolerance is generous
# (15%) and the baseline should be refreshed — by copying the build-dir
# document over the repo-root one — whenever the harness or the hardware
# class changes, not on every run. Simulated metrics (sim IOPS, event
# counts) are covered by the determinism checks in ci_asan.sh instead.
#
# Usage: tools/ci_perf.sh [build-dir]   (default: build-perf)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-perf}"
BASELINE="BENCH_perf.json"
TOLERANCE="0.15"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)"

FRESH="$BUILD_DIR/BENCH_perf.json"
"$BUILD_DIR/bench/nvsh_perf" --json "$FRESH"

if [ ! -f "$BASELINE" ]; then
  echo "ci_perf: no baseline at $BASELINE — copying fresh run as the baseline" >&2
  cp "$FRESH" "$BASELINE"
  exit 0
fi

if ! command -v python3 > /dev/null 2>&1; then
  echo "ci_perf: python3 unavailable; wrote $FRESH, skipping regression gate" >&2
  exit 0
fi

python3 - "$BASELINE" "$FRESH" "$TOLERANCE" <<'EOF'
import json, sys

base = json.load(open(sys.argv[1]))
fresh = json.load(open(sys.argv[2]))
tolerance = float(sys.argv[3])

failed = False
for mode, metric, unit in (("engine", "events_per_sec", "ev/s"),
                           ("io", "events_per_sec", "ev/s"),
                           ("stack", "wall_iops", "IO/s")):
    b = base["results"][mode][metric]
    f = fresh["results"][mode][metric]
    ratio = f / b if b else float("inf")
    verdict = "ok" if ratio >= 1.0 - tolerance else "REGRESSION"
    print(f"{mode:>6}: baseline {b/1e6:8.2f}M {unit}  fresh {f/1e6:8.2f}M {unit}  "
          f"({ratio:.0%} of baseline) {verdict}")
    if verdict != "ok":
        failed = True

if failed:
    print(f"ci_perf: a mode fell more than {tolerance:.0%} below baseline",
          file=sys.stderr)
    sys.exit(1)
print("ci_perf: all modes within tolerance")
EOF
