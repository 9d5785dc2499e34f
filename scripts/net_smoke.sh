#!/usr/bin/env bash
# sem-net smoke test: rank-parallel scale-out determinism and recovery,
# across real processes and real Unix sockets.
#
# Stage 1: uninterrupted single-process reference run of the shear-layer
# workload under `terasem-launch --ranks 1`.
#
# Stage 2: the same workload on 4 ranks, with ranks 2 and 3 both
# chaos-killed right after step 7 commits (the single-rank loss has its
# own smoke, scripts/net_fault_smoke.sh). The launcher must see both
# deaths as one loss and recover once: respawn ranks 2 and 3 into
# epoch 1 while ranks 0 and 1 survive in place (each spawned once),
# every rank rewinding to the newest checkpoint generation all ranks
# hold, and finish. Each leg — and each rank within the 4-rank leg —
# runs at its own seed-derived TERASEM_THREADS count, so this also pins
# that the scale-out result is thread-count independent.
#
# Stage 3: the final checkpoint of every rank of the killed+recovered
# 4-rank run must be bitwise identical (`cmp`) to the uninterrupted
# single-process run, despite the kills, the recovery, and the
# different thread counts.
#
# Stage 4: both legs run with --telemetry, so the 4-rank job must leave
# a `terasem.ranks` JSON-lines artifact (one schema-checked terasem.rank
# record per rank, with spans, counters, and per-op-class comm samples)
# and a merged Chrome trace with one clock-aligned process lane per rank
# and balanced B/E events. `sem-report --ranks` must then render the
# per-phase min/mean/max table, the imbalance factor, the measured vs
# alpha-beta-model comm fraction, and the parallel efficiency against
# the single-process reference, and its --strict imbalance gate must
# pass under a generous threshold.
set -euo pipefail
cd "$(dirname "$0")/.."

STEPS=10
KILL_AT=7
SEED="${NET_SEED:-42}"
RANKS=4
REFDIR=$(mktemp -d)
PARDIR=$(mktemp -d)
trap 'rm -rf "$REFDIR" "$PARDIR"' EXIT

# Seed-derived thread counts in 1..4: one for the reference leg, one per
# rank of the parallel leg (cycled by the launcher via --threads).
H=$(( SEED % 997 )); [ "$H" -lt 0 ] && H=$(( -H ))
T_REF=$(( H % 4 + 1 ))
T_PAR="$(( (H / 4) % 4 + 1 )),$(( (H / 16) % 4 + 1 )),$(( (H / 64) % 4 + 1 )),$(( (H / 256) % 4 + 1 ))"

cargo build -q --release --offline -p sem-net --bin terasem-launch
cargo build -q --release --offline -p sem-bench --bin sem-report
LAUNCH=target/release/terasem-launch
SEMREPORT=target/release/sem-report
ARGS=(--steps "$STEPS" --elems 3 --order 4 --ckpt-every 3 --timeout 120 --telemetry)
FINAL=$(printf 'ckpt_%08d.ckpt' "$STEPS")

echo "net_smoke: seed $SEED, threads ref=$T_REF par=$T_PAR"

# ---- stage 1: uninterrupted single-process reference -----------------
TERASEM_THREADS=$T_REF "$LAUNCH" "${ARGS[@]}" --ranks 1 --dir "$REFDIR" \
    >/dev/null 2>&1
[ -f "$REFDIR/rank_0/$FINAL" ] || {
    echo "net_smoke: FAIL — reference run left no final checkpoint" >&2
    exit 1
}

# ---- stage 2: 4 ranks, chaos-kill ranks 2 and 3, one recovery --------
PAR_OUT=$(mktemp); PAR_ERR=$(mktemp)
"$LAUNCH" "${ARGS[@]}" --ranks "$RANKS" --threads "$T_PAR" \
    --kill "2@$KILL_AT,3@$KILL_AT" --max-restarts 3 --dir "$PARDIR" \
    >"$PAR_OUT" 2>"$PAR_ERR" || {
    echo "net_smoke: FAIL — 4-rank kill/recovery run failed" >&2
    cat "$PAR_OUT" "$PAR_ERR" >&2; rm -f "$PAR_OUT" "$PAR_ERR"
    exit 1
}
grep -q "chaos kill after committing step $KILL_AT" "$PAR_ERR" || {
    echo "net_smoke: FAIL — chaos kill did not fire" >&2
    cat "$PAR_ERR" >&2; rm -f "$PAR_OUT" "$PAR_ERR"
    exit 1
}
grep -q "recovery 1/3: respawning rank(s) 2, 3 into epoch 1" "$PAR_ERR" || {
    echo "net_smoke: FAIL — the launcher did not respawn ranks 2 and 3 in one recovery" >&2
    cat "$PAR_ERR" >&2; rm -f "$PAR_OUT" "$PAR_ERR"
    exit 1
}
# Survivor PIDs preserved: ranks 0 and 1 spawned once.
for r in 0 1; do
    n=$(grep -c "^terasem-launch: rank $r pid " "$PAR_OUT" || true)
    [ "$n" -eq 1 ] || {
        echo "net_smoke: FAIL — survivor rank $r respawned ($n spawns)" >&2
        cat "$PAR_OUT" >&2; rm -f "$PAR_OUT" "$PAR_ERR"
        exit 1
    }
done
grep -q "final checkpoints byte-identical across $RANKS rank(s)" "$PAR_OUT" || {
    echo "net_smoke: FAIL — cross-rank final-checkpoint check missing" >&2
    cat "$PAR_OUT" >&2; rm -f "$PAR_OUT" "$PAR_ERR"
    exit 1
}
rm -f "$PAR_OUT" "$PAR_ERR"
echo "net_smoke: ranks 2 and 3 killed at step $KILL_AT, respawned in one recovery," \
     "all ranks finished"

# ---- stage 3: bitwise-identical to the single-process run ------------
for r in $(seq 0 $(( RANKS - 1 ))); do
    cmp "$REFDIR/rank_0/$FINAL" "$PARDIR/rank_$r/$FINAL" || {
        echo "net_smoke: FAIL — rank $r final checkpoint differs from the" \
             "single-process run (scale-out determinism violated)" >&2
        exit 1
    }
done

# ---- stage 4: rank-aware telemetry artifacts + sem-report --ranks ----
[ -f "$PARDIR/terasem.ranks" ] || {
    echo "net_smoke: FAIL — no terasem.ranks artifact" >&2
    exit 1
}
[ -f "$PARDIR/trace_merged.json" ] || {
    echo "net_smoke: FAIL — no merged Chrome trace" >&2
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 - "$PARDIR/terasem.ranks" "$PARDIR/trace_merged.json" "$RANKS" "$STEPS" <<'EOF'
import json, sys

ranks_path, trace_path, nranks, steps = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])

# terasem.ranks: one schema-checked record per rank.
recs = [json.loads(line) for line in open(ranks_path)]
assert len(recs) == nranks, f"want {nranks} rank records, got {len(recs)}"
assert sorted(r["rank"] for r in recs) == list(range(nranks)), "rank ids"
aligned = set()
for r in recs:
    assert r["type"] == "terasem.rank", r["type"]
    assert r["schema"] == 7, f"schema {r['schema']}"
    assert r["ranks"] == nranks and r["steps"] == steps
    assert r["spans"]["step"]["calls"] >= 1, "no step spans"
    assert r["counters"]["gs_words"] > 0, "no gather-scatter counters"
    comm = r["comm"]
    # Satellite guarantee: comm timing samples ship without --bench-comm.
    assert len(comm["exchange"]) > 0, "no exchange samples"
    assert len(comm["allgather"]) > 0, "no allgather samples"
    assert all(b >= 0 and s > 0 for b, s in comm["exchange"]), "bad samples"
    assert comm["msgs"] > 0 and comm["bytes"] > 0
    aligned.add(r["barrier_ns"] + r["clock_shift_ns"])
assert len(aligned) == 1, f"clock alignment disagrees: {aligned}"

# Merged trace: one named lane per rank, balanced B/E within each lane.
t = json.load(open(trace_path))
evs = t["traceEvents"]
lanes = {e["pid"]: e["args"]["name"] for e in evs if e["ph"] == "M"}
assert sorted(lanes) == list(range(nranks)), f"lanes {sorted(lanes)}"
assert all(lanes[r] == f"rank {r}" for r in range(nranks)), lanes
for r in range(nranks):
    b = sum(1 for e in evs if e["ph"] == "B" and e["pid"] == r)
    e = sum(1 for e in evs if e["ph"] == "E" and e["pid"] == r)
    assert b == e and b > 0, f"rank {r}: unbalanced B/E ({b} vs {e})"
print(f"net_smoke: {nranks} rank records + merged {len(evs)}-event trace validated")
EOF
fi

RANKS_REPORT=$(mktemp)
"$SEMREPORT" --ranks "$PARDIR/terasem.ranks" --ref "$REFDIR/rank_0/metrics.jsonl" \
    --strict --max-imbalance 100 > "$RANKS_REPORT" || {
    echo "net_smoke: FAIL — sem-report --ranks --strict rejected the run" >&2
    cat "$RANKS_REPORT" >&2; rm -f "$RANKS_REPORT"
    exit 1
}
for want in "Per-phase across ranks" "Load imbalance (step):" \
            "measured comm fraction of wall" "model \[" \
            "Parallel efficiency vs" "strict: PASS"; do
    grep -q "$want" "$RANKS_REPORT" || {
        echo "net_smoke: FAIL — sem-report --ranks output missing: $want" >&2
        cat "$RANKS_REPORT" >&2; rm -f "$RANKS_REPORT"
        exit 1
    }
done
rm -f "$RANKS_REPORT"
echo "net_smoke: sem-report --ranks rendered imbalance, comm fraction, efficiency"
echo "net_smoke: OK ($RANKS ranks, two-rank kill/recovery, bitwise identical to 1 rank, telemetry)"
