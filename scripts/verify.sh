#!/usr/bin/env bash
# Tier-1 verification: offline build, full test matrix, and the
# thread-count determinism contract of the parallel executor.
#
# Everything here runs with no network access and no external crates —
# including the optional extras:
#   --proptest     also run the in-tree randomized property suites
set -euo pipefail
cd "$(dirname "$0")/.."

run_proptest=0
for arg in "$@"; do
    case "$arg" in
        --proptest) run_proptest=1 ;;
        *)
            echo "unknown flag: $arg (known: --proptest)" >&2
            exit 2
            ;;
    esac
done

echo "==> offline release build"
cargo build --release --workspace

echo "==> rustfmt check"
cargo fmt --all --check

echo "==> clippy, warnings as errors (whole workspace, all targets: lib, tests, examples)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> full test matrix (unit + integration + end-to-end)"
cargo test --release --workspace -q

echo "==> static lint audit of the workload suite (fail on any Deny)"
cargo run --release -p dysel-bench --bin dysel-lint -q
echo "    clean"

echo "==> quickstart example smoke"
cargo run --release --example quickstart -q | grep -q "output verified"
echo "    verified"

echo "==> fault-plan flag smoke (bad spec must be rejected, exit 2)"
if target/release/experiments --fault-plan "bogus spec" --list >/dev/null 2>&1; then
    echo "    --fault-plan accepted a bogus spec" >&2
    exit 1
fi
echo "    rejected"

echo "==> determinism: --threads 1 vs --threads 4 must be bit-identical"
# One worker prices each work-group live; four workers record span traces
# ahead and replay them. fig11a covers the CPU model, fig11b the GPU one.
strip_wallclock() { sed -E 's/\[[0-9.]+s\]//g; s/total: [0-9.]+s//'; }
bin=target/release/experiments
cargo build --release -p dysel-bench --bin experiments -q
for id in fig11a fig11b; do
    "$bin" --threads 1 "$id" | strip_wallclock > "/tmp/dysel-verify-t1-$id.txt"
    "$bin" --threads 4 "$id" | strip_wallclock > "/tmp/dysel-verify-t4-$id.txt"
    grep -q "$id" "/tmp/dysel-verify-t1-$id.txt"  # guard against an empty run
    diff "/tmp/dysel-verify-t1-$id.txt" "/tmp/dysel-verify-t4-$id.txt"
done
echo "    identical"

echo "==> trace smoke: --trace-out must write non-empty, parseable JSON"
trace=/tmp/dysel-verify-trace.json
metrics=/tmp/dysel-verify-metrics.txt
rm -f "$trace" "$metrics"
"$bin" --threads 1 --trace-out "$trace" --metrics-out "$metrics" fig11a \
    | strip_wallclock | grep -v "^trace: \|^metrics " > /tmp/dysel-verify-obs.txt
test -s "$trace" && test -s "$metrics"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$trace" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "trace must contain events"
assert all("ph" in e and "ts" in e and "pid" in e for e in events)
PY
else
    grep -q '"traceEvents"' "$trace" && grep -q '"ph"' "$trace"
fi
grep -q "^counter dysel_launches_total " "$metrics"
echo "    $(grep -c '"ph"' "$trace") event line(s), metrics present"

echo "==> overhead guard: observation must not change results"
# The observed fig11a run's output (modulo wall-clock and the two export
# notice lines) must equal the unobserved --threads 1 run byte for byte:
# same figures, same selection digest, same fault counters.
diff /tmp/dysel-verify-t1-fig11a.txt /tmp/dysel-verify-obs.txt
echo "    identical"

echo "==> warm restart: second --state-file run must skip all profiling"
state=/tmp/dysel-verify-state.bin
rm -f "$state"
"$bin" --state-file "$state" fig11b | grep "^run summary" > /tmp/dysel-verify-cold.txt
test -s "$state"  # the cold run must have written the state file
"$bin" --state-file "$state" fig11b | grep "^run summary" > /tmp/dysel-verify-warm.txt
grep -q " profiled=0 " /tmp/dysel-verify-warm.txt
cold_sel=$(grep -o "selections=[0-9a-f]*" /tmp/dysel-verify-cold.txt)
warm_sel=$(grep -o "selections=[0-9a-f]*" /tmp/dysel-verify-warm.txt)
test -n "$cold_sel" && test "$cold_sel" = "$warm_sel"
echo "    warm run profiled nothing, same winners ($warm_sel)"

echo "==> corrupted state file: typed warning + cold start, exit 0"
printf 'not a dysel state file' > "$state"
"$bin" --state-file "$state" fig11b > /tmp/dysel-verify-corrupt.txt 2>&1
grep -q "selection state ignored, cold start" /tmp/dysel-verify-corrupt.txt
grep "^run summary" /tmp/dysel-verify-corrupt.txt | grep -vq " profiled=0 "
rm -f "$state"
echo "    cold-started with a warning"

echo "==> features export: --features-out must write one record per variant"
features=/tmp/dysel-verify-features.jsonl
rm -f "$features"
"$bin" --features-out "$features" | grep -q "^features: 153 records"
test "$(wc -l < "$features")" -eq 153
if grep -vq '"encoded":"' "$features"; then
    echo "    a features record is missing its canonical encoding" >&2
    exit 1
fi
echo "    153 records, encodings present"

echo "==> dominance pruning: selections must be prune-invariant, cost must drop"
# Three full-suite passes: the digest (and thus every figure's winners)
# must not depend on the prune level, audit mode must record zero
# disagreements (the dominance rule is never falsified on the suite),
# and prune=on must strictly reduce profiled launches.
# The off pass doubles as the predictor smoke's training run: metrics
# collection is observe-only and must not move the digest.
metrics=/tmp/dysel-verify-metrics.txt
rm -f "$metrics"
"$bin" --prune off --metrics-out "$metrics" | grep "^run summary" > /tmp/dysel-verify-prune-off.txt
"$bin" --prune audit | grep "^run summary" > /tmp/dysel-verify-prune-audit.txt
"$bin" --prune on    | grep "^run summary" > /tmp/dysel-verify-prune-on.txt
sel_off=$(grep -o "selections=[0-9a-f]*" /tmp/dysel-verify-prune-off.txt)
sel_audit=$(grep -o "selections=[0-9a-f]*" /tmp/dysel-verify-prune-audit.txt)
sel_on=$(grep -o "selections=[0-9a-f]*" /tmp/dysel-verify-prune-on.txt)
test -n "$sel_off" && test "$sel_off" = "$sel_audit" && test "$sel_off" = "$sel_on"
grep -q " prune-disagreements=0 " /tmp/dysel-verify-prune-audit.txt
if grep -q " pruned=0 " /tmp/dysel-verify-prune-audit.txt; then
    echo "    audit flagged nothing — the dominance rule went vacuous" >&2
    exit 1
fi
prof_off=$(grep -o "profiled-variants=[0-9]*" /tmp/dysel-verify-prune-off.txt | cut -d= -f2)
prof_on=$(grep -o "profiled-variants=[0-9]*" /tmp/dysel-verify-prune-on.txt | cut -d= -f2)
test "$prof_on" -lt "$prof_off"
echo "    same winners ($sel_on), profiled variants $prof_off -> $prof_on, 0 disagreements"

echo "==> predictor: train must be byte-reproducible, shadow digest-invariant"
# Train on the features corpus + the metrics dump the previous gates
# produced; two trainings of the same inputs must be byte-identical.
model=/tmp/dysel-verify-model.bin
rm -f "$model" "$model.2"
train=target/release/dysel-train
"$train" --corpus "$features" --metrics "$metrics" --out "$model" \
    | grep -q "^trained: signatures="
"$train" --corpus "$features" --metrics "$metrics" --out "$model.2" > /dev/null
cmp "$model" "$model.2"
# A truncated corpus is a typed rejection, never a silent skip.
head -c 100 "$features" > /tmp/dysel-verify-features-trunc.jsonl
if "$train" --corpus /tmp/dysel-verify-features-trunc.jsonl \
    --metrics "$metrics" --out /dev/null 2>/dev/null; then
    echo "    trainer accepted a truncated corpus" >&2
    exit 1
fi
# Shadow mode predicts on every launch but must never steer: same
# digest as the plain run, with a non-vacuous hit/miss split.
"$bin" --predict shadow --predict-model "$model" \
    | grep "^run summary" > /tmp/dysel-verify-predict-shadow.txt
sel_shadow=$(grep -o "selections=[0-9a-f]*" /tmp/dysel-verify-predict-shadow.txt)
test -n "$sel_shadow" && test "$sel_shadow" = "$sel_off"
hits=$(grep -o "predict-hits=[0-9]*" /tmp/dysel-verify-predict-shadow.txt | cut -d= -f2)
misses=$(grep -o "predict-misses=[0-9]*" /tmp/dysel-verify-predict-shadow.txt | cut -d= -f2)
test "$hits" -gt 0 && test "$hits" -gt "$misses"
# Shadow parity must also hold per thread count (cheap subset id).
"$bin" --threads 1 fig11a | grep "^run summary" > /tmp/dysel-verify-p-base.txt
sel_base=$(grep -o "selections=[0-9a-f]*" /tmp/dysel-verify-p-base.txt)
for t in 1 2 8; do
    "$bin" --threads "$t" --predict shadow --predict-model "$model" fig11a \
        | grep "^run summary" > /tmp/dysel-verify-p-shadow-t.txt
    sel_t=$(grep -o "selections=[0-9a-f]*" /tmp/dysel-verify-p-shadow-t.txt)
    test -n "$sel_base" && test "$sel_t" = "$sel_base"
done
# On mode must skip real profiling work (the suite itself verifies
# every output, so a non-zero exit would mean a wrong selection ran),
# and its digest must be invariant across reruns.
"$bin" --predict on --predict-model "$model" \
    | grep "^run summary" > /tmp/dysel-verify-predict-on.txt
prof_pred=$(grep -o "profiled-variants=[0-9]*" /tmp/dysel-verify-predict-on.txt | cut -d= -f2)
test "$prof_pred" -lt "$prof_off"
"$bin" --predict on --predict-model "$model" fig11a \
    | grep "^run summary" > /tmp/dysel-verify-p-on1.txt
"$bin" --predict on --predict-model "$model" fig11a \
    | grep "^run summary" > /tmp/dysel-verify-p-on2.txt
diff /tmp/dysel-verify-p-on1.txt /tmp/dysel-verify-p-on2.txt
echo "    reproducible model, shadow = off ($sel_shadow, hits=$hits misses=$misses), on profiled $prof_off -> $prof_pred"

echo "==> service stress: --clients 8 digest must equal --clients 1"
"$bin" --clients 1 --tenants 2 | grep "^service summary" > /tmp/dysel-verify-svc1.txt
"$bin" --clients 8 --tenants 2 | grep "^service summary" > /tmp/dysel-verify-svc8.txt
svc1=$(grep -o "digest=[0-9a-f]*" /tmp/dysel-verify-svc1.txt)
svc8=$(grep -o "digest=[0-9a-f]*" /tmp/dysel-verify-svc8.txt)
grep -q " errors=0 " /tmp/dysel-verify-svc1.txt
grep -q " errors=0 " /tmp/dysel-verify-svc8.txt
test -n "$svc1" && test "$svc1" = "$svc8"
echo "    concurrent selections identical ($svc8)"

echo "==> chaos containment: injected faults stay typed, bad spec rejected"
if "$bin" --clients 1 --chaos-plan "bogus spec" >/dev/null 2>&1; then
    echo "    --chaos-plan accepted a bogus spec" >&2
    exit 1
fi
"$bin" --clients 8 --tenants 2 --chaos-plan "seed=7;sgemm#0@0+1=panic;spmv-ell#8@0+1=kill" \
    | grep "^service summary" > /tmp/dysel-verify-chaos.txt
# The plan must actually bite (typed failures counted, run completes).
if grep -q " errors=0 " /tmp/dysel-verify-chaos.txt; then
    echo "    chaos plan injected nothing" >&2
    exit 1
fi
echo "    $(grep -o 'errors=[0-9]*' /tmp/dysel-verify-chaos.txt) typed, run completed"

echo "==> crash recovery: SIGKILL mid-journal, warm rerun must match clean"
svc_state=/tmp/dysel-verify-svc-state.bin
rm -f "$svc_state" "$svc_state.journal"
"$bin" --clients 2 --tenants 2 --state-file "$svc_state" \
    | grep "^service summary" > /tmp/dysel-verify-crash-ref.txt
rm -f "$svc_state" "$svc_state.journal"
# Start a journaling run, SIGKILL it once the write-ahead journal holds
# records (header is 12 bytes), then rerun to completion: recovery must
# replay the journaled prefix and converge on the clean digest.
"$bin" --clients 2 --tenants 2 --state-file "$svc_state" >/dev/null 2>&1 &
crash_pid=$!
for _ in $(seq 1 200); do
    size=$(stat -c %s "$svc_state.journal" 2>/dev/null || echo 0)
    [ "$size" -gt 12 ] && break
    sleep 0.05
done
kill -9 "$crash_pid" 2>/dev/null || true
wait "$crash_pid" 2>/dev/null || true
test "$(stat -c %s "$svc_state.journal")" -gt 12  # killed with records on disk
"$bin" --clients 2 --tenants 2 --state-file "$svc_state" \
    | grep "^service summary" > /tmp/dysel-verify-crash-warm.txt
grep -q " errors=0 " /tmp/dysel-verify-crash-warm.txt
crash_ref=$(grep -o "digest=[0-9a-f]*" /tmp/dysel-verify-crash-ref.txt)
crash_warm=$(grep -o "digest=[0-9a-f]*" /tmp/dysel-verify-crash-warm.txt)
test -n "$crash_ref" && test "$crash_ref" = "$crash_warm"
rm -f "$svc_state" "$svc_state.journal"
echo "    recovered cleanly, same selections ($crash_warm)"

echo "==> perf trajectory: full experiments suite vs BENCH_baseline.json"
# Hard gate: digest drift fails immediately; a >10% wall-clock overrun is
# re-measured once (shared-VM noise) and fails only if it reproduces.
scripts/bench.sh --check

if [ "$run_proptest" = 1 ]; then
    echo "==> property suites (--features proptest)"
    for crate in dysel-kernel dysel-device dysel-analysis dysel-verify dysel-core dysel-workloads; do
        cargo test --release -p "$crate" --features proptest -q
    done
fi

echo "==> OK"
