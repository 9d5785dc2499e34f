#!/usr/bin/env bash
# Canonical tier-1 verification: hermetic build + full test suite +
# bench-target compilation, all offline (the workspace is
# zero-dependency by policy — an empty cargo registry cache must work).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo test -q --offline -p sem-obs
# The parallel-for's worker pool (unsafe lifetime erasure, atomics) is
# tested optimized too: ordering bugs often show only there, and the
# benchmark measures an optimized build.
cargo test -q --release --offline -p sem-comm
# So are the runtime-chosen `unsafe` SIMD mxm kernels, for the same reason.
cargo test -q --release --offline -p sem-linalg
# And the parallel gather-scatter fold and CG's chunked vector passes,
# which write disjoint parts of one slice from several threads.
cargo test -q --release --offline -p sem-gs
cargo test -q --release --offline -p sem-solvers
cargo bench --no-run --offline -p sem-bench
scripts/metrics_smoke.sh
scripts/fault_smoke.sh
scripts/soak_smoke.sh
scripts/net_smoke.sh
scripts/net_fault_smoke.sh
scripts/serve_smoke.sh
scripts/bench_snapshot.sh
# The fixed-workload benchmark builds against the workspace crates: an
# API change that breaks its build, its gate or its mirrored inputs
# fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
# Rustdoc must build warning-free, so intra-doc links to renamed or
# deleted items fail here instead of going stale.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "verify: OK"
