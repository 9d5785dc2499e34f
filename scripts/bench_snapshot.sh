#!/usr/bin/env bash
# Bench snapshot smoke: regenerate throwaway BENCH_*.json snapshots in
# smoke mode (short min-time, tiny sample counts) and validate them —
# plus any committed snapshots under results/ — against the
# terasem-bench-v1 schema with `bench_check` (which uses the in-repo
# sem_obs::json parser; no external tooling).
#
# Full-length regeneration of the committed snapshots is a manual step:
#   target/release/table3_mxm --emit-table --json results/BENCH_mxm.json
#   TERASEM_THREADS=1 TERASEM_BENCH_JSON=$PWD/results/BENCH_operators.json \
#       cargo bench --offline -p sem-bench --bench operators
# (an absolute path: cargo runs the bench from crates/bench).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release --offline -p sem-bench --bin table3_mxm --bin bench_check
cargo bench -q --no-run --offline -p sem-bench 2>/dev/null

TMPDIR_SNAP=$(mktemp -d)
trap 'rm -rf "$TMPDIR_SNAP"' EXIT

target/release/table3_mxm --smoke --json "$TMPDIR_SNAP/BENCH_mxm.json" >/dev/null
OPBENCH=$(cargo bench --no-run --offline -p sem-bench --bench operators \
    --message-format=json 2>/dev/null | \
    sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | \
    grep '/operators-' | tail -n 1)
[ -n "$OPBENCH" ] && [ -x "$OPBENCH" ] || {
    echo "bench_snapshot: FAIL — operators bench executable not found" >&2
    exit 1
}
TERASEM_BENCH_SAMPLES=3 TERASEM_BENCH_JSON="$TMPDIR_SNAP/BENCH_operators.json" \
    "$OPBENCH" --bench >/dev/null

CHECK=("$TMPDIR_SNAP"/BENCH_*.json)
for f in results/BENCH_*.json; do
    [ -f "$f" ] && CHECK+=("$f")
done
target/release/bench_check "${CHECK[@]}"
echo "bench_snapshot: OK (${#CHECK[@]} snapshots valid)"
