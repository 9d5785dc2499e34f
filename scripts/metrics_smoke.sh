#!/usr/bin/env bash
# Observability smoke test.
#
# Stage 1: run a short shear-layer solve with metrics enabled
# (fig3_shear_layer --smoke) on the default stdout sink and validate the
# emitted per-timestep JSON records — one `JSON {...}` line per step,
# each carrying the required schema-v7 fields, including the rank stamp
# (null in single-process runs), the latency histogram objects, the
# recovery trail, and the OIFS substep count (the smoke solve is OIFS,
# so every record must report at least one; see
# crates/obs/src/record.rs)
# — plus exactly one end-of-run `terasem.run` summary record from the
# sem-run supervisor.
#
# Stage 2: re-run with a file sink (TERASEM_METRICS_SINK=file:<path>) and
# a Chrome trace export (TERASEM_TRACE=<path>), replay the file through
# sem-report, and assert its per-phase/per-step tables are non-empty and
# the trace export is valid JSON.
#
# Stage 3: an experiment binary that is not a smoke mode honours
# TERASEM_METRICS too — fig4_projection (quick scale: two 60-step runs)
# writes exactly one step record per step to the file sink.
#
# Stage 4: one flop account end to end — fig8_hairpin (quick scale, 26
# steps) writes one step record per step plus one terasem.run record,
# every step runs mxm work, and the Mflop total it prints is the sum of
# its records' counters_delta.mxm_flops.
set -euo pipefail
cd "$(dirname "$0")/.."

STEPS=20
OUT=$(mktemp)
SINKFILE=$(mktemp)
TRACEFILE=$(mktemp)
REPORT=$(mktemp)
FIG4SINK=$(mktemp)
FIG8SINK=$(mktemp)
FIG8OUT=$(mktemp)
trap 'rm -f "$OUT" "$SINKFILE" "$TRACEFILE" "$REPORT" "$FIG4SINK" "$FIG8SINK" "$FIG8OUT"' EXIT

cargo build -q --release --offline -p sem-bench \
    --bin fig3_shear_layer --bin fig4_projection --bin fig8_hairpin --bin sem-report
FIG3=target/release/fig3_shear_layer
SEMREPORT=target/release/sem-report

# ---- stage 1: default stdout sink ------------------------------------
"$FIG3" --smoke 2>/dev/null | grep '^JSON ' | sed 's/^JSON //' > "$OUT"

LINES=$(grep -c '"type":"terasem.step"' "$OUT" || true)
if [ "$LINES" -ne "$STEPS" ]; then
    echo "metrics_smoke: FAIL — expected $STEPS step records, got $LINES" >&2
    exit 1
fi
RUNRECS=$(grep -c '"type":"terasem.run"' "$OUT" || true)
if [ "$RUNRECS" -ne 1 ]; then
    echo "metrics_smoke: FAIL — expected 1 terasem.run record, got $RUNRECS" >&2
    exit 1
fi

if command -v python3 >/dev/null 2>&1; then
    python3 - "$OUT" <<'EOF'
import json, sys

REQUIRED = [
    "type", "schema", "rank", "step", "time", "dt", "cfl", "oifs_substeps",
    "pressure_iterations", "pressure_initial_residual",
    "pressure_final_residual", "projection_depth", "pressure_converged",
    "helmholtz_iterations", "scalar_iterations", "recoveries",
    "recovery_trail", "seconds",
    "counters", "counters_delta", "spans", "spans_delta",
    "latency", "latency_hist",
]

with open(sys.argv[1]) as f:
    everything = [json.loads(line) for line in f]

records = [r for r in everything if r.get("type") == "terasem.step"]
runs = [r for r in everything if r.get("type") == "terasem.run"]
assert len(runs) == 1, f"want 1 terasem.run record, got {len(runs)}"
run = runs[0]
assert run["outcome"] == "completed", f"run outcome {run['outcome']!r}"
assert run["steps"] == len(records), f"run steps {run['steps']}"
assert run["resumed"] is False and run["step_errors"] == 0

for i, r in enumerate(records):
    missing = [k for k in REQUIRED if k not in r]
    assert not missing, f"record {i}: missing fields {missing}"
    assert r["type"] == "terasem.step", f"record {i}: type {r['type']!r}"
    assert r["schema"] == 7, f"record {i}: schema {r['schema']}"
    # Single-process run: the rank stamp is present but null.
    assert r["rank"] is None, f"record {i}: rank {r['rank']!r}"
    assert r["step"] == i + 1, f"record {i}: step {r['step']}"
    # Schema v6: the OIFS smoke solve sizes at least one RK4 substep.
    assert r["oifs_substeps"] >= 1, f"record {i}: oifs_substeps {r['oifs_substeps']}"
    assert r["pressure_iterations"] >= 0
    assert r["recoveries"] >= 0
    assert isinstance(r["recovery_trail"], list)
    assert len(r["recovery_trail"]) == r["recoveries"], f"record {i}: trail length"
    assert isinstance(r["helmholtz_iterations"], list)
    # Every step runs mxm products: the one flop account grows.
    for reg in ("counters", "counters_delta"):
        assert r[reg]["mxm_flops"] > 0, f"record {i}: {reg}.mxm_flops {r[reg]['mxm_flops']}"
    assert r["spans"]["step"]["calls"] == i + 1, f"record {i}: step span calls"
    assert r["spans_delta"]["step"]["calls"] == 1, f"record {i}: step span delta"
    # Schema v2: every phase that ran this step reports quantiles and
    # raw buckets, and they agree on the sample count.
    lat, hist = r["latency"], r["latency_hist"]
    assert "step" in lat, f"record {i}: no step latency"
    for phase, q in lat.items():
        assert set(q) == {"count", "p50", "p90", "p99", "max"}, f"{phase}: {q}"
        assert q["count"] >= 1 and q["p50"] <= q["p90"] <= q["p99"] <= q["max"]
        buckets = hist[phase]
        assert sum(c for _, c in buckets) == q["count"], f"{phase} count mismatch"
        assert all(0 <= b < 64 and c >= 1 for b, c in buckets), f"{phase} buckets"

# Cumulative counters must be monotone; per-step deltas must add up.
for a, b in zip(records, records[1:]):
    for key in a["counters"]:
        assert b["counters"][key] >= a["counters"][key], f"{key} not monotone"
        assert b["counters"][key] - a["counters"][key] == b["counters_delta"][key], \
            f"{key} delta mismatch at step {b['step']}"

print(f"metrics_smoke: {len(records)} step records + 1 run record validated (schema 7)")
EOF
elif command -v jq >/dev/null 2>&1; then
    jq -e 'select(.type == "terasem.step")
           | select(.schema != 7
                  or (.counters_delta.mxm_flops <= 0) or (has("cfl") | not)
                  or (.oifs_substeps < 1)
                  or (has("rank") | not)
                  or (has("recovery_trail") | not)
                  or (has("latency") | not))' \
        "$OUT" >/dev/null && { echo "metrics_smoke: FAIL — bad record" >&2; exit 1; }
    echo "metrics_smoke: $LINES records validated (jq)"
else
    # Last-ditch structural check without a JSON tool.
    grep -c '"type":"terasem.step"' "$OUT" >/dev/null
    echo "metrics_smoke: $LINES records present (no JSON validator found)"
fi

# ---- stage 2: file sink + sem-report + chrome export ------------------
TERASEM_METRICS_SINK="file:$SINKFILE" TERASEM_TRACE="$TRACEFILE" \
    "$FIG3" --smoke >/dev/null 2>&1

SINKLINES=$(grep -c '"type":"terasem.step"' "$SINKFILE" || true)
if [ "$SINKLINES" -ne "$STEPS" ]; then
    echo "metrics_smoke: FAIL — file sink wrote $SINKLINES step records, want $STEPS" >&2
    exit 1
fi
grep -q '"type":"terasem.run"' "$SINKFILE" || {
    echo "metrics_smoke: FAIL — file sink is missing the terasem.run record" >&2
    exit 1
}
# File-sink lines are bare JSON (no 'JSON ' prefix).
if grep -q '^JSON ' "$SINKFILE"; then
    echo "metrics_smoke: FAIL — file sink lines carry the stdout prefix" >&2
    exit 1
fi

"$SEMREPORT" "$SINKFILE" --chrome "$REPORT.chrome" > "$REPORT"
grep -q "Per-phase breakdown" "$REPORT" || { echo "metrics_smoke: FAIL — no phase table" >&2; exit 1; }
grep -q "pressure_cg" "$REPORT" || { echo "metrics_smoke: FAIL — empty phase table" >&2; exit 1; }
grep -q "Per-step trajectory" "$REPORT" || { echo "metrics_smoke: FAIL — no trajectory" >&2; exit 1; }
TRAJ=$(awk '/Per-step trajectory/,/^$/' "$REPORT" | grep -c '^ *[0-9]' || true)
if [ "$TRAJ" -ne "$STEPS" ]; then
    echo "metrics_smoke: FAIL — trajectory has $TRAJ rows, want $STEPS" >&2
    exit 1
fi
grep -q "cg_breakdowns" "$REPORT" || { echo "metrics_smoke: FAIL — no counter summary" >&2; exit 1; }

if command -v python3 >/dev/null 2>&1; then
    python3 - "$TRACEFILE" "$REPORT.chrome" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    d = json.load(open(path))
    evs = d["traceEvents"]
    assert evs, f"{path}: empty traceEvents"
    b = sum(1 for e in evs if e["ph"] == "B")
    e = sum(1 for e in evs if e["ph"] == "E")
    assert b == e, f"{path}: unbalanced B/E ({b} vs {e})"
    assert all({"name", "ph", "ts", "pid", "tid"} <= set(ev) for ev in evs)
print("metrics_smoke: chrome exports valid and balanced")
EOF
fi
rm -f "$REPORT.chrome"

# ---- stage 3: TERASEM_METRICS in a full experiment binary --------------
FIG4_RUNS=2
FIG4_STEPS=60
TERASEM_METRICS=1 TERASEM_METRICS_SINK="file:$FIG4SINK" \
    target/release/fig4_projection >/dev/null 2>&1
FIG4LINES=$(grep -c '"type":"terasem.step"' "$FIG4SINK" || true)
if [ "$FIG4LINES" -ne $((FIG4_RUNS * FIG4_STEPS)) ]; then
    echo "metrics_smoke: FAIL — fig4_projection wrote $FIG4LINES step records," \
        "want $((FIG4_RUNS * FIG4_STEPS))" >&2
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 - "$FIG4SINK" "$FIG4_RUNS" "$FIG4_STEPS" <<'EOF'
import json, sys
path, runs, steps = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
records = [json.loads(l) for l in open(path)]
records = [r for r in records if r.get("type") == "terasem.step"]
got = [r["step"] for r in records]
want = list(range(1, steps + 1)) * runs
assert got == want, f"fig4 step sequence {got[:5]}... is not one record per step"
print(f"metrics_smoke: fig4_projection wrote one step record per step ({len(got)})")
EOF
fi

# ---- stage 4: fig8's printed flops are its step records' flops --------
FIG8_STEPS=26
TERASEM_METRICS=1 TERASEM_METRICS_SINK="file:$FIG8SINK" \
    target/release/fig8_hairpin > "$FIG8OUT" 2>/dev/null
FIG8LINES=$(grep -c '"type":"terasem.step"' "$FIG8SINK" || true)
FIG8RUNS=$(grep -c '"type":"terasem.run"' "$FIG8SINK" || true)
if [ "$FIG8LINES" -ne "$FIG8_STEPS" ] || [ "$FIG8RUNS" -ne 1 ]; then
    echo "metrics_smoke: FAIL — fig8_hairpin wrote $FIG8LINES step and $FIG8RUNS run" \
        "records, want $FIG8_STEPS and 1" >&2
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 - "$FIG8SINK" "$FIG8OUT" <<'EOF'
import json, re, sys
records = [json.loads(l) for l in open(sys.argv[1])]
flops = [r["counters_delta"]["mxm_flops"] for r in records if r.get("type") == "terasem.step"]
assert all(f > 0 for f in flops), f"fig8 steps without mxm flops: {flops}"
totals = [l for l in open(sys.argv[2]) if l.startswith("totals:")]
assert len(totals) == 1, f"fig8 printed {len(totals)} totals lines"
printed = float(re.search(r", ([0-9.]+) Mflop,", totals[0]).group(1))
recorded = sum(flops) / 1e6
assert abs(printed - recorded) <= 0.05, f"fig8 prints {printed} Mflop, records sum to {recorded}"
print(f"metrics_smoke: fig8_hairpin prints {printed} Mflop = its {len(flops)} records' {recorded:.3f}")
EOF
fi

echo "metrics_smoke: OK (stdout sink, file sink, sem-report, chrome export, fig4 and fig8 records)"
