#!/usr/bin/env bash
# Pre-PR gate: everything a change must pass before it ships.
#
#   scripts/check.sh --quick   build + tier-1 tests only (fast inner loop)
#   scripts/check.sh           the full gate: workspace tests, lints,
#                              docs, bench smokes, and the bench guard
#
# Fully offline — dependencies are vendored as stubs under third_party/
# (see third_party/README.md), so no registry or network access is needed.
# rustfmt and clippy are optional in minimal toolchains; their steps are
# skipped with a notice when absent rather than failing the gate.

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo build --release

# Tier-1: the root package's unit/integration/property/doc tests.
step cargo test -q

if [[ "$MODE" == "--quick" ]]; then
    echo
    echo "Quick checks passed (tier-1 only; run scripts/check.sh for the full gate)."
    exit 0
fi

# The full workspace: every crate's suites.
step cargo test --workspace -q

if cargo fmt --version >/dev/null 2>&1; then
    step cargo fmt --check
else
    echo
    echo "==> cargo fmt --check SKIPPED (rustfmt not installed)"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo
    echo "==> cargo clippy --workspace --all-targets (warnings denied)"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo
    echo "==> cargo clippy SKIPPED (clippy not installed)"
fi

echo
echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Chaos smoke: one short fixed-seed round of the fault-injection campaign
# with the online invariant checker (crates/dpr-chaos; docs/PROTOCOL.md
# §10). Exits nonzero on any invariant violation. The checked-in
# BENCH_chaos.json comes from a full default-length campaign; the smoke
# writes to the target directory instead.
echo
echo "==> chaos smoke (1 round, seed 42, 2s)"
cargo run --release -q -p dpr-bench --bin chaos -- \
    --seed 42 --rounds 1 --secs 2 --out target/BENCH_chaos.smoke.json

# Store correctness with device-resident reads: a short ycsb_b_ltm run of
# the end-to-end benchmark (e2ebench/). Its output checks — model read
# values, exactly-once execution, every completed batch commits — exit
# nonzero on any violation, which fails the gate.
echo
echo "==> ycsb_b_ltm correctness run (seed 1, 4 s)"
cargo run --offline --release -q --manifest-path e2ebench/Cargo.toml -- \
    --workload ycsb_b_ltm --seed 1 --seconds 4 --trace 0

# Bench guard: regenerates the gate-scaling, netload, meta-scaling, and
# store-scaling smokes (a ~1 s §6 gate microbench, a short loopback
# netload run exercising the framed wire protocol end to end, a short
# metadata/finder-plane run over the partitioned store + delta engine,
# and a short arena-vs-legacy storage-engine hot-path run) and fails if
# throughput regressed more than DPR_BENCH_GUARD_PCT percent (default 25)
# against the checked-in BENCH_*.smoke.json baselines. Full-length
# BENCH_*.json artifacts are regenerated manually, not here.
echo
echo "==> bench guard (gate + netload + meta + store smokes vs checked-in baselines)"
scripts/bench_guard.sh

echo
echo "All checks passed."
