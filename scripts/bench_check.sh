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
# The fresh snapshot's comm_sweep rows are gated as well: on every preset
# the sparse exchange schedule must ship no more messages (total and on
# the alltoall payload tag) than the dense oracle.
#
# Usage: scripts/bench_check.sh [--threshold PCT] [--baseline FILE]
#                               [--fresh-out FILE]
#   --threshold PCT  max allowed sim-time regression, percent (default 25)
#   --baseline FILE  committed snapshot to diff against (default BENCH_9.json)
#   --fresh-out FILE keep the regenerated snapshot at FILE (for CI
#                    artifact upload; default is a deleted tempfile)

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

THRESHOLD=25
BASELINE=BENCH_9.json
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

if [[ -n "$FRESH_OUT" ]]; then
  FRESH="$FRESH_OUT"
else
  FRESH=$(mktemp --suffix=.json)
  trap 'rm -f "$FRESH"' EXIT
fi

echo "==> regenerating perf snapshot"
cargo run --release -q -p mnd-bench --bin perfsnap -- "$FRESH"

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
