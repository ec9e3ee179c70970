#!/usr/bin/env bash
# The A/A proof: runs the full untraced benchmark several times on the
# checked-out commit (seed = run number), then applies to the runs the
# checks the driver makes before it accepts the benchmark, with margins
# (aa.go), and rewrites the spread table in README.md.
#
#   bench/aa.sh [runs]        default 10, about 2 min each
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
runs="${1:-10}"
dir="$root/bench/out/aa"
rm -rf "$dir"
mkdir -p "$dir"
for i in $(seq 1 "$runs"); do
  echo "aa: run $i of $runs" >&2
  bash "$root/bench/run.sh" -seed "$i" > "$dir/set-$(printf %03d "$i").txt"
done
bash "$root/bench/run.sh" -aa-report "$dir"
