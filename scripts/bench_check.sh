#!/usr/bin/env bash
# Performance regression gate, run by CI on pushes to main.
#
# Regenerates a fresh perf snapshot and diffs it against the committed
# baseline (BENCH_9.json). The gate compares the *simulated* end-to-end
# times (`sim_time_s`), which are deterministic — host wall-clock numbers
# are printed for context but never gated on, since CI runners are noisy.
# The snapshot's rows cover the D&C driver, every registered engine, the
# serving plane's per-tenant p95 latencies (`serve:<tenant>` keys), and
# the geometric workload family (`emst:<preset>:<engine>` keys); a
# baseline without emst rows fails the gate outright, so the family
# cannot silently drop out of the snapshot.
#
# The committed baseline's kernel-sweep rows are also gated: any row the
# calibrated policy *selected* (it would actually route that kernel at
# that size down that parallel variant) must show speedup >= 1.0 at the
# million-row tier — a selected sub-1.0x variant means calibration chose
# a losing path (the BENCH_4 incident_counts 0.58x regression).
#
# With --fresh-kernels (what main CI passes), the *freshly regenerated*
# kernel-sweep rows are gated too — real wall-clock on this runner, not
# the committed snapshot. Runner noise gets a band instead of a cliff:
# a selected variant under 0.9x prints a warning, under 0.75x fails.
#
# The fresh snapshot's comm_sweep rows are gated as well: on every preset
# the sparse exchange schedule must ship no more messages (total and on
# the alltoall payload tag) than the dense oracle.
#
# Usage: scripts/bench_check.sh [--threshold PCT] [--baseline FILE]
#                               [--fresh-kernels] [--fresh-out FILE]
#   --threshold PCT  max allowed sim-time regression, percent (default 25)
#   --baseline FILE  committed snapshot to diff against (default BENCH_9.json)
#   --fresh-kernels  also gate the regenerated kernel-sweep rows
#                    (warn < 0.9x, fail < 0.75x on selected variants)
#   --fresh-out FILE keep the regenerated snapshot at FILE (for CI
#                    artifact upload; default is a deleted tempfile)

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

THRESHOLD=25
BASELINE=BENCH_9.json
FRESH_KERNELS=0
FRESH_OUT=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --threshold)
      THRESHOLD="${2:?--threshold needs a value}"
      shift 2
      ;;
    --baseline)
      BASELINE="${2:?--baseline needs a file}"
      shift 2
      ;;
    --fresh-kernels)
      FRESH_KERNELS=1
      shift
      ;;
    --fresh-out)
      FRESH_OUT="${2:?--fresh-out needs a file}"
      shift 2
      ;;
    *)
      echo "bench_check.sh: unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

if ! command -v jq > /dev/null; then
  echo "bench_check.sh: jq is required (CI installs it; locally: apt-get install jq)" >&2
  exit 2
fi
if [[ ! -f "$BASELINE" ]]; then
  echo "bench_check.sh: baseline $BASELINE not found" >&2
  exit 2
fi

echo "==> baseline coverage: the geometric workload family must be gated"
EMST_ROWS=$(jq -r '[.end_to_end[]? | select(.graph | startswith("emst:"))] | length' "$BASELINE")
if [[ "$EMST_ROWS" -eq 0 ]]; then
  echo "bench_check: FAIL — $BASELINE has no emst:<preset>:<engine> rows;"
  echo "regenerate it with: cargo run --release -p mnd-bench --bin perfsnap -- $BASELINE"
  exit 1
fi
echo "  $EMST_ROWS emst rows present"

echo "==> kernel-sweep gate: selected parallel variants at the 1M-row tier ($BASELINE)"
BAD=$(jq -r '
  [.kernel_sweep[]?
   | select(.rows == 1048576 and .selected == true and .speedup < 1.0)
   | "\(.kernel)[\(.variant)] speedup \(.speedup)"] | join("\n")
' "$BASELINE")
if [[ -n "$BAD" ]]; then
  echo "bench_check: FAIL — calibrated policy selected a sub-1.0x parallel variant:"
  echo "$BAD"
  exit 1
fi
jq -r '
  .kernel_sweep[]?
  | select(.rows == 1048576 and .selected == true)
  | "  \(.kernel)[\(.variant)]: \(.speedup)x"
' "$BASELINE"
echo "kernel-sweep gate: OK"

if [[ -n "$FRESH_OUT" ]]; then
  FRESH="$FRESH_OUT"
else
  FRESH=$(mktemp --suffix=.json)
  trap 'rm -f "$FRESH"' EXIT
fi

echo "==> regenerating perf snapshot"
cargo run --release -q -p mnd-bench --bin perfsnap -- "$FRESH"

if [[ "$FRESH_KERNELS" -eq 1 ]]; then
  echo
  echo "==> fresh kernel-sweep gate: selected variants re-measured on this runner"
  # The committed snapshot proves the variants won on the author's host;
  # this proves they still win where CI actually runs. Selected rows at
  # the 1M tier: < 0.75x fails, < 0.9x warns (runners are noisy — a
  # hard 1.0x cliff here would flake).
  HARD=$(jq -r '
    [.kernel_sweep[]?
     | select(.rows == 1048576 and .selected == true and .speedup < 0.75)
     | "\(.kernel)[\(.variant)] speedup \(.speedup)"] | join("\n")
  ' "$FRESH")
  WARN=$(jq -r '
    [.kernel_sweep[]?
     | select(.rows == 1048576 and .selected == true and .speedup >= 0.75 and .speedup < 0.9)
     | "\(.kernel)[\(.variant)] speedup \(.speedup)"] | join("\n")
  ' "$FRESH")
  jq -r '
    .kernel_sweep[]?
    | select(.rows == 1048576 and .selected == true)
    | "  \(.kernel)[\(.variant)]: \(.speedup)x (fresh)"
  ' "$FRESH"
  if [[ -n "$WARN" ]]; then
    echo "bench_check: WARN — selected variants under 0.9x on this runner:"
    echo "$WARN"
  fi
  if [[ -n "$HARD" ]]; then
    echo "bench_check: FAIL — selected variants under 0.75x on this runner:"
    echo "$HARD"
    exit 1
  fi
  echo "fresh kernel-sweep gate: OK"
fi

echo
echo "==> comm-sweep gate: sparse exchange must not ship more messages than dense"
# Pair each preset's sparse row with its dense row: the sparse schedule
# exists to shed empty-bucket messages, so on the skewed web-crawl presets
# its total and alltoall-tag message counts must never exceed the dense
# oracle's.
BAD=$(jq -r '
  [.comm_sweep[]? | select(.variant == "dense")] as $dense
  | [.comm_sweep[]? | select(.variant == "sparse")
     | . as $s
     | ($dense[] | select(.preset == $s.preset)) as $d
     | select($s.messages > $d.messages or $s.payload_msgs > $d.payload_msgs)
     | "\($s.preset): sparse \($s.messages)/\($s.payload_msgs) msgs vs dense \($d.messages)/\($d.payload_msgs)"]
  | join("\n")
' "$FRESH")
if [[ -n "$BAD" ]]; then
  echo "bench_check: FAIL — sparse exchange shipped more messages than the dense oracle:"
  echo "$BAD"
  exit 1
fi
jq -r '
  [.comm_sweep[]? | select(.variant == "dense")] as $dense
  | .comm_sweep[]? | select(.variant == "sparse")
  | . as $s
  | ($dense[] | select(.preset == $s.preset)) as $d
  | "  \($s.preset): sparse \($s.messages) msgs <= dense \($d.messages) msgs"
' "$FRESH"
echo "comm-sweep gate: OK"

echo
echo "==> end-to-end sim time vs $BASELINE (gate: +${THRESHOLD}%)"
printf '%-28s %6s %12s %12s %8s %6s\n' graph nodes "base sim_s" "fresh sim_s" delta gate

# Join baseline and fresh end_to_end rows on (graph, nodes); emit one
# "graph nodes base fresh" line per metric present in both snapshots.
FAIL=0
while read -r graph nodes base fresh; do
  delta=$(jq -n --argjson b "$base" --argjson f "$fresh" '(($f - $b) / $b * 100)')
  over=$(jq -n --argjson d "$delta" --argjson t "$THRESHOLD" '$d > $t')
  verdict=ok
  if [[ "$over" == "true" ]]; then
    verdict=FAIL
    FAIL=1
  fi
  printf '%-28s %6s %12s %12s %7.1f%% %6s\n' \
    "$graph" "$nodes" "$base" "$fresh" "$delta" "$verdict"
done < <(
  jq -r --slurpfile fresh "$FRESH" '
    .end_to_end[] as $b
    | ($fresh[0].end_to_end[] | select(.graph == $b.graph and .nodes == $b.nodes)) as $f
    | "\($b.graph) \($b.nodes) \($b.sim_time_s) \($f.sim_time_s)"
  ' "$BASELINE"
)

echo
echo "==> host wall-clock (informational, not gated)"
jq -r '
  .end_to_end[] | select(has("wall_ms")) | "\(.graph) nodes=\(.nodes): \(.wall_ms) ms"
' "$FRESH"

if [[ "$FAIL" -ne 0 ]]; then
  echo
  echo "bench_check: FAIL — simulated time regressed more than ${THRESHOLD}% on at least one row"
  exit 1
fi
echo
echo "bench_check: OK"
