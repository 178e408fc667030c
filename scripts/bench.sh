#!/usr/bin/env bash
# End-to-end experiments-suite benchmark: runs the full deterministic suite,
# records per-experiment and total wall-clock seconds plus
# the selections digest as BENCH_<rev>.json, and (with --check) compares
# against the checked-in BENCH_baseline.json:
#
#   * the selections digest must match exactly — a digest drift means the
#     run is not the same computation and the timing is meaningless;
#   * total wall-clock must stay within 10% of the baseline total. A
#     timing overrun triggers ONE re-run and the faster total is used, so
#     a single noisy-neighbour window cannot fail the check by itself.
#
#   scripts/bench.sh                    # run + write BENCH_<rev>.json
#   scripts/bench.sh --check            # also fail on digest drift / >10%
#   scripts/bench.sh --check --warn-only  # report regressions, exit 0 (CI)
#
# The baseline's `history` array records the perf trajectory (entry 0 is
# the oldest); --check prints the speedup over that first entry.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
warn_only=0
for arg in "$@"; do
    case "$arg" in
        --check) check=1 ;;
        --warn-only) warn_only=1 ;;
        *)
            echo "unknown flag: $arg (known: --check --warn-only)" >&2
            exit 2
            ;;
    esac
done

baseline=BENCH_baseline.json
rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
out="BENCH_${rev}.json"
work=$(mktemp -d "${TMPDIR:-/tmp}/dysel-bench.XXXXXX")
trap 'rm -rf "$work"' EXIT
raw="$work/raw.txt"

cargo build --release -p dysel-bench --bin experiments -q

# Runs the suite once; sets $digest and $total.
run_suite() {
    echo "==> running the full experiments suite"
    target/release/experiments >"$raw"
    digest=$(grep -o 'selections=[0-9a-f]*' "$raw" | cut -d= -f2)
    total=$(grep '^total: ' "$raw" | sed -E 's/total: ([0-9.]+)s/\1/')
    test -n "$digest" && test -n "$total"
}

write_json() {
    awk -v rev="$rev" -v digest="$digest" -v total="$total" '
        BEGIN { n = 0 }
        /^== / { id = $2 }
        /^[ \t]*\[[0-9.]+s\]$/ {
            line = $0
            sub(/^[ \t]*\[/, "", line)
            sub(/s\]$/, "", line)
            ids[n] = id
            secs[n] = line
            n++
        }
        END {
            printf "{\n"
            printf "  \"schema\": 1,\n"
            printf "  \"rev\": \"%s\",\n", rev
            printf "  \"selections_digest\": \"%s\",\n", digest
            printf "  \"total_seconds\": %s,\n", total
            printf "  \"experiments\": {\n"
            for (i = 0; i < n; i++)
                printf "    \"%s\": %s%s\n", ids[i], secs[i], (i < n - 1 ? "," : "")
            printf "  }\n"
            printf "}\n"
        }
    ' "$raw" >"$out"
    echo "    total ${total}s, selections=${digest} -> ${out}"
}

run_suite
write_json

if [ "$check" = 0 ]; then
    exit 0
fi

if [ ! -f "$baseline" ]; then
    echo "    no $baseline to check against" >&2
    exit 1
fi

base_digest=$(grep -o '"selections_digest": "[0-9a-f]*"' "$baseline" | head -1 | grep -o '[0-9a-f]*"$' | tr -d '"')
base_total=$(grep '"total_seconds":' "$baseline" | head -1 | sed -E 's/.*: ([0-9.]+),?/\1/')
oldest=$(grep '"seconds":' "$baseline" | head -1 | sed -E 's/.*"seconds": ([0-9.]+).*/\1/' || true)

within_budget() {
    awk -v t="$1" -v b="$base_total" 'BEGIN { exit !(t <= b * 1.10) }'
}

fail=0
if [ "$digest" != "$base_digest" ]; then
    echo "    FAIL: selections digest $digest != baseline $base_digest" >&2
    fail=1
elif ! within_budget "$total"; then
    echo "    over budget (${total}s vs ${base_total}s +10%); retrying once" >&2
    first=$total
    run_suite
    write_json
    if ! awk -v a="$total" -v b="$first" 'BEGIN { exit !(a < b) }'; then
        total=$first
    fi
    if ! within_budget "$total"; then
        echo "    FAIL: total ${total}s regressed >10% over baseline ${base_total}s" >&2
        fail=1
    fi
fi
if [ "$fail" = 0 ]; then
    echo "    within budget: ${total}s vs baseline ${base_total}s (+10% allowed)"
fi
if [ -n "${oldest:-}" ]; then
    awk -v t="$total" -v o="$oldest" \
        'BEGIN { printf "    trajectory: %.2fx over the oldest recorded run (%ss)\n", o / t, o }'
fi

if [ "$fail" = 1 ] && [ "$warn_only" = 1 ]; then
    echo "    (warn-only: not failing the build)"
    exit 0
fi
exit "$fail"
