#!/usr/bin/env bash
# Repo verification gate: formatting, lints, then the tier-1 suite
# (ROADMAP.md: `cargo build --release && cargo test -q`), and — in full
# mode — the bench smoke, the chaos/resilience recovery grids, the
# checkpoint/serve/comm/emst sweeps, and a fresh perf snapshot written to
# target/ (the committed BENCH_*.json baselines are never touched).
#
# Usage: scripts/verify.sh [--quick]
#   --quick  lints + debug tests only: skips the release build, the
#            criterion smoke, the chaos and resilience sweeps, the
#            repro sweeps (checkpoint, serve, comm, emst), and the
#            perf snapshot. This is the PR gate in CI; the full run
#            gates pushes to main.
#
# Shellcheck-clean: CI lints this file (and every script here) with
# shellcheck on each PR.

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick)
      QUICK=1
      ;;
    -h | --help)
      sed -n '2,12p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "verify.sh: unknown argument: $arg" >&2
      exit 2
      ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$QUICK" -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test -q"
cargo test -q --workspace

if [[ "$QUICK" -eq 1 ]]; then
  echo "verify: OK (quick: skipped release build, bench smoke, chaos/resilience sweeps, repro sweeps, perf snapshot)"
  exit 0
fi

echo "==> cargo bench (smoke: one sample per bench)"
cargo bench -p mnd-bench --features criterion-bench -- --test

echo "==> chaos recovery smoke (oracle-verified crash/replay grid)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 4 --seed-grid 7,11 chaos

echo "==> resilience smoke (every registered engine under the same fault plans)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 4 --seed-grid 7,11 resilience

echo "==> checkpoint sweep smoke (cadence knob across the engine registry)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 4 checkpoint-sweep

echo "==> serve sweep smoke (multi-tenant serving plane, oracle-verified)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 4 serve-sweep

echo "==> comm sweep smoke (sparse exchange vs dense oracle, oracle-verified)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 8 comm-sweep

echo "==> emst sweep smoke (geometric presets, brute-force EMST oracle)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 4 emst-sweep

# The snapshot goes under target/, never over a committed BENCH_*.json:
# bench_check.sh diffs a fresh snapshot against the committed baseline,
# and a baseline regenerated from the same code would make that gate
# vacuous.
echo "==> perf snapshot (target/perfsnap-verify.json)"
mkdir -p target
cargo run --release -q -p mnd-bench --bin perfsnap -- target/perfsnap-verify.json

echo "verify: OK"
