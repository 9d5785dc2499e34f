#!/usr/bin/env bash
# sem-guard smoke test: deterministic fault injection + staged recovery.
#
# Stage 1: run the fig3 metrics smoke under a TERASEM_FAULT plan that
# exercises every fault kind (field NaN/Inf, indefinite operator,
# indefinite preconditioner, projection corruption, gather-scatter
# drop, coarse-solve corruption). The run must complete (every fault
# recovered — an unrecovered
# step exits 3) and its summary must report the injections and
# recoveries.
#
# Stage 2: the recorded metrics replayed through `sem-report --strict`
# must trip the health gate (exit 4): the run needed intervention.
#
# Stage 3: the same smoke with no fault plan must pass the strict gate —
# the baseline is clean and the guard machinery is invisible when idle.
#
# Stage 4: the give-up path. A fault that fires on every attempt of
# step 3 exhausts the recovery ladder; the supervised run must end at
# that first step error (exit 3) through a final checkpoint of step 2,
# the only checkpoint left, and emit one `terasem.run` record with
# outcome "failed" and one step error, which `sem-report --strict`
# flags as a run that gave up (exit 5).
set -euo pipefail
cd "$(dirname "$0")/.."

ERR=$(mktemp)
SINKFILE=$(mktemp)
CLEANSINK=$(mktemp)
GIVEUPSINK=$(mktemp)
REPORT=$(mktemp)
CKPTDIR=$(mktemp -d)
trap 'rm -f "$ERR" "$SINKFILE" "$CLEANSINK" "$GIVEUPSINK" "$REPORT"; rm -rf "$CKPTDIR"' EXIT

cargo build -q --release --offline -p sem-bench \
    --bin fig3_shear_layer --bin sem-report
FIG3=target/release/fig3_shear_layer
SEMREPORT=target/release/sem-report

# One event per fault kind, on distinct steps of the 20-step smoke;
# indef_pc fires on two attempts so the ladder must reach the Jacobi
# rung; coarse corrupts the coarse-grid RHS inside the pressure
# preconditioner. Seeded, so the injected nodes are reproducible.
PLAN='nan:u@3;inf:v@5;indef_op@7;indef_pc@9x2;proj@11;gs@13;coarse@15;seed=42'

# ---- stage 1: every fault kind recovers ------------------------------
if ! TERASEM_FAULT="$PLAN" TERASEM_METRICS_SINK="file:$SINKFILE" \
        "$FIG3" --smoke >/dev/null 2>"$ERR"; then
    echo "fault_smoke: FAIL — smoke run died under the fault plan:" >&2
    cat "$ERR" >&2
    exit 1
fi
grep -q "fault plan active (7 event(s), seed 42)" "$ERR" || {
    echo "fault_smoke: FAIL — fault plan was not picked up from TERASEM_FAULT" >&2
    cat "$ERR" >&2
    exit 1
}
SUMMARY=$(sed -n 's/^smoke: \([0-9]*\) faults injected, \([0-9]*\) recovery rollbacks, \([0-9]*\) step(s) recovered$/\1 \2 \3/p' "$ERR")
if [ -z "$SUMMARY" ]; then
    echo "fault_smoke: FAIL — no injection/recovery summary line" >&2
    cat "$ERR" >&2
    exit 1
fi
read -r INJECTED ROLLBACKS RECOVERED <<< "$SUMMARY"
# 8 firings: one per event, plus the extra indef_pc attempt.
if [ "$INJECTED" -ne 8 ]; then
    echo "fault_smoke: FAIL — $INJECTED faults injected, want 8" >&2
    exit 1
fi
if [ "$ROLLBACKS" -lt 8 ] || [ "$RECOVERED" -lt 7 ]; then
    echo "fault_smoke: FAIL — $ROLLBACKS rollbacks / $RECOVERED recovered steps (want >=8 / >=7)" >&2
    exit 1
fi
echo "fault_smoke: $INJECTED faults injected, $ROLLBACKS rollbacks, $RECOVERED steps recovered"

# ---- stage 2: the strict gate flags the recovered run -----------------
set +e
"$SEMREPORT" "$SINKFILE" --strict > "$REPORT"
RC=$?
set -e
if [ "$RC" -ne 4 ]; then
    echo "fault_smoke: FAIL — strict gate exited $RC on a recovered run, want 4" >&2
    tail -5 "$REPORT" >&2
    exit 1
fi
grep -q "strict: FAIL" "$REPORT" || {
    echo "fault_smoke: FAIL — strict verdict line missing" >&2
    exit 1
}
echo "fault_smoke: strict gate trips on the recovered run (exit 4)"

# ---- stage 3: the uninjected baseline is strict-clean -----------------
TERASEM_METRICS_SINK="file:$CLEANSINK" "$FIG3" --smoke >/dev/null 2>"$ERR"
if grep -q "fault plan active" "$ERR"; then
    echo "fault_smoke: FAIL — baseline run picked up a fault plan" >&2
    exit 1
fi
"$SEMREPORT" "$CLEANSINK" --strict > "$REPORT" || {
    echo "fault_smoke: FAIL — strict gate tripped on the clean baseline:" >&2
    tail -5 "$REPORT" >&2
    exit 1
}
grep -q "strict: PASS" "$REPORT" || {
    echo "fault_smoke: FAIL — clean baseline missing strict PASS verdict" >&2
    exit 1
}
echo "fault_smoke: uninjected baseline passes the strict gate"

# ---- stage 4: an unrecoverable step ends the run through a checkpoint --
set +e
TERASEM_FAULT='indef_op@3x99;seed=1' TERASEM_CHECKPOINT_DIR="$CKPTDIR" \
    TERASEM_METRICS_SINK="file:$GIVEUPSINK" "$FIG3" --smoke >/dev/null 2>"$ERR"
RC=$?
set -e
if [ "$RC" -ne 3 ]; then
    echo "fault_smoke: FAIL — unrecoverable run exited $RC, want 3" >&2
    cat "$ERR" >&2
    exit 1
fi
CKPTS=$(ls "$CKPTDIR")
if [ "$CKPTS" != "ckpt_00000002.ckpt" ]; then
    echo "fault_smoke: FAIL — want only the exit checkpoint ckpt_00000002.ckpt, found:" >&2
    echo "$CKPTS" >&2
    exit 1
fi
RUNREC=$(grep '"type":"terasem.run"' "$GIVEUPSINK" || true)
if [ "$(grep -c . <<< "$RUNREC")" -ne 1 ] ||
    ! grep -q '"outcome":"failed"' <<< "$RUNREC" ||
    ! grep -q '"step_errors":1,' <<< "$RUNREC"; then
    echo "fault_smoke: FAIL — want one terasem.run record of a failed run with one step error:" >&2
    echo "$RUNREC" >&2
    exit 1
fi
set +e
"$SEMREPORT" "$GIVEUPSINK" --strict > "$REPORT"
RC=$?
set -e
if [ "$RC" -ne 5 ]; then
    echo "fault_smoke: FAIL — strict gate exited $RC on a run that gave up, want 5" >&2
    tail -5 "$REPORT" >&2
    exit 1
fi
echo "fault_smoke: unrecoverable step ends the run at step 2 through a checkpoint (exit 3; strict exit 5)"
echo "fault_smoke: OK (all fault kinds recovered; give-up exits through a checkpoint; strict gate trips when it should)"
