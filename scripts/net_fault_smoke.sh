#!/usr/bin/env bash
# sem-net fault smoke: the transport survives a seeded network-fault
# storm, and a killed rank is recovered by respawning it alone — both
# bitwise-identical to an unfaulted single-process reference.
#
# Stage 1: uninterrupted single-process reference run of the shear-layer
# workload under `terasem-launch --ranks 1` (no faults).
#
# Stage 2: the same workload on 4 ranks with a TERASEM_NET_FAULT storm
# armed on rank 1 (`rank=1`, matching the in-process storm tests: one
# faulty rank, fast-heal tuning) — all seven fault kinds (delay,
# duplicate, drop, corrupt, stall, truncate, sever) fire against live
# validation traffic. The self-healing transport must absorb every one
# of them with NO rank death and NO recovery: CRC catches
# the corruption, sequence numbers catch the drop and the duplicate,
# and severed links are redialed and replayed from the retransmit
# buffer. The run's telemetry must show the injected faults and the
# reconnects, and every rank's final checkpoint must be cmp-equal to
# the reference.
#
# Stage 3: 4 ranks with rank 2 chaos-killed after step 7. The launcher
# must recover it by respawning *only rank 2* into epoch 1 (survivor
# PIDs preserved — asserted from the launcher's pid lines), every rank
# must rewind to generation 6, the newest one all ranks hold, and the
# final checkpoints must again be cmp-equal to the reference.
set -euo pipefail
cd "$(dirname "$0")/.."

STEPS=10
RANKS=4
KILL_AT=7
REFDIR=$(mktemp -d)
STORMDIR=$(mktemp -d)
KILLDIR=$(mktemp -d)
OUT=$(mktemp); ERR=$(mktemp)
trap 'rm -rf "$REFDIR" "$STORMDIR" "$KILLDIR"; rm -f "$OUT" "$ERR"' EXIT

cargo build -q --release --offline -p sem-net --bin terasem-launch
LAUNCH=target/release/terasem-launch
ARGS=(--steps "$STEPS" --elems 3 --order 4 --ckpt-every 3 --timeout 120 --telemetry)
FINAL=$(printf 'ckpt_%08d.ckpt' "$STEPS")

# ---- stage 1: unfaulted single-process reference ---------------------
TERASEM_THREADS=1 "$LAUNCH" "${ARGS[@]}" --ranks 1 --dir "$REFDIR" \
    >/dev/null 2>&1
[ -f "$REFDIR/rank_0/$FINAL" ] || {
    echo "net_fault_smoke: FAIL — reference run left no final checkpoint" >&2
    exit 1
}

# ---- stage 2: seeded fault storm, healed transparently ---------------
# The plan is frame-indexed against rank 1's outbound data traffic.
# `dup` fires before the first link-breaking kind so the duplicate
# really reaches the wire (a broken link swallows writes). Fast-heal
# tuning (50ms heartbeats, 5s heal window) keeps the 1s stall "slow,
# not dead" and gives the severed link room to redial under load.
STORM="seed=7,rank=1,delay:5@3,dup@6,drop@9,corrupt@12,stall:1@15,truncate@18,sever@21"
TERASEM_NET_FAULT="$STORM" TERASEM_NET_HB_MS=50 \
    TERASEM_NET_MISS_BUDGET=3 TERASEM_NET_HEAL_MS=5000 TERASEM_THREADS=1 \
    "$LAUNCH" "${ARGS[@]}" --ranks "$RANKS" --dir "$STORMDIR" \
    >"$OUT" 2>"$ERR" || {
    echo "net_fault_smoke: FAIL — 4-rank storm run failed" >&2
    cat "$OUT" "$ERR" >&2
    exit 1
}
# Healing must be invisible to the supervisor: no recovery.
if grep -Eq "recovery [0-9]+/|entering epoch" "$ERR"; then
    echo "net_fault_smoke: FAIL — the storm leaked past the transport" >&2
    cat "$ERR" >&2
    exit 1
fi
grep -q "final checkpoints byte-identical across $RANKS rank(s)" "$OUT" || {
    echo "net_fault_smoke: FAIL — cross-rank final-checkpoint check missing" >&2
    cat "$OUT" >&2
    exit 1
}
# The shipped telemetry must meter the storm: faults were injected and
# at least one severed/broken link was re-established.
grep -Eq '"net_faults_injected":[1-9]' "$STORMDIR/terasem.ranks" || {
    echo "net_fault_smoke: FAIL — no injected faults metered in terasem.ranks" >&2
    exit 1
}
grep -Eq '"net_reconnects":[1-9]' "$STORMDIR/terasem.ranks" || {
    echo "net_fault_smoke: FAIL — no link heal metered in terasem.ranks" >&2
    exit 1
}
for r in $(seq 0 $(( RANKS - 1 ))); do
    cmp "$REFDIR/rank_0/$FINAL" "$STORMDIR/rank_$r/$FINAL" || {
        echo "net_fault_smoke: FAIL — rank $r final checkpoint differs from" \
             "the unfaulted reference (healing corrupted the solve)" >&2
        exit 1
    }
done
echo "net_fault_smoke: storm ($STORM) healed in-flight, checkpoints match reference"

# ---- stage 3: chaos-killed rank respawned alone, all ranks rewind ----
TERASEM_THREADS=1 "$LAUNCH" "${ARGS[@]}" --ranks "$RANKS" \
    --kill "2@$KILL_AT" --max-restarts 3 --dir "$KILLDIR" \
    >"$OUT" 2>"$ERR" || {
    echo "net_fault_smoke: FAIL — 4-rank kill/recovery run failed" >&2
    cat "$OUT" "$ERR" >&2
    exit 1
}
grep -q "chaos kill after committing step $KILL_AT" "$ERR" || {
    echo "net_fault_smoke: FAIL — chaos kill did not fire" >&2
    cat "$ERR" >&2
    exit 1
}
grep -q "recovery 1/3: respawning rank(s) 2 into epoch 1" "$ERR" || {
    echo "net_fault_smoke: FAIL — rank 2 alone was not respawned into epoch 1" >&2
    cat "$ERR" >&2
    exit 1
}
for r in $(seq 0 $(( RANKS - 1 ))); do
    grep -q "rank $r: epoch 1: resumed from generation 6" "$ERR" || {
        echo "net_fault_smoke: FAIL — rank $r did not rewind to generation 6" >&2
        cat "$ERR" >&2
        exit 1
    }
done
# Survivor PIDs preserved: ranks 0, 1, 3 spawned once; rank 2 twice.
for r in 0 1 3; do
    n=$(grep -c "^terasem-launch: rank $r pid " "$OUT" || true)
    [ "$n" -eq 1 ] || {
        echo "net_fault_smoke: FAIL — survivor rank $r respawned ($n spawns)" >&2
        cat "$OUT" >&2
        exit 1
    }
done
n=$(grep -c "^terasem-launch: rank 2 pid " "$OUT" || true)
[ "$n" -eq 2 ] || {
    echo "net_fault_smoke: FAIL — rank 2 expected 2 spawns, got $n" >&2
    cat "$OUT" >&2
    exit 1
}
for r in $(seq 0 $(( RANKS - 1 ))); do
    cmp "$REFDIR/rank_0/$FINAL" "$KILLDIR/rank_$r/$FINAL" || {
        echo "net_fault_smoke: FAIL — rank $r final checkpoint differs from" \
             "the reference after the recovery" >&2
        exit 1
    }
done
echo "net_fault_smoke: rank 2 respawned into epoch 1, survivors kept their PIDs"
echo "net_fault_smoke: OK (storm healed + single-rank loss recovered, bitwise identical)"
