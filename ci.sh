#!/usr/bin/env bash
# Tier-1 CI gate in eight stages — shellcheck, fmt, clippy, build, test,
# fuzz-smoke, net-parity, bench-harness — all offline. Each stage reports
# its wall time; the trailer totals them.
#
#   ./ci.sh                 run every stage
#   ./ci.sh --list          print the stage names and exit
#   ./ci.sh --only NAME     run one stage (repeatable; order preserved)
#
# Every gate is defined and run once. The stages that used to re-run,
# through the release binary, what the `test` stage had already run are
# gone; each names the test that still performs its check:
#
#   lint-golden gen-golden opt-golden select-golden scheme-golden
#   chaos-golden difftest scheme-matrix
#                   -> goldens_are_current (olden-bench, golden.rs): the
#                      same report functions with the same arguments
#                      against the same files, one GOLDENS table; difftest
#                      runs the full 200 seeds x 3 schemes there
#   typecheck       -> typecheck_sweep_units_are_clean (reports.rs)
#   elide           -> annotated_benchmarks_elide_at_runtime (opt_parity.rs)
#   predict         -> select_parity.rs (the stage asserted only "parses")
#   perf-smoke      -> counters: the `run` row of goldens_are_current
#                      (tests/golden/oldenc-run.txt); wall time: perf/
#                      (bench-harness below builds and smoke-runs it)
#
# A drifted golden prints its diff and `oldenc golden NAME --bless`.
set -euo pipefail
IFS=$'\n\t'
cd "$(dirname "$0")"

# Stage selection: empty = all. `--only` may be passed multiple times.
LIST_ONLY=0
declare -a ONLY=()
while [ "$#" -gt 0 ]; do
    case "$1" in
    --list)
        LIST_ONLY=1
        ;;
    --only)
        [ "$#" -ge 2 ] || {
            echo "ci.sh: --only needs a stage name (see --list)" >&2
            exit 2
        }
        ONLY+=("$2")
        shift
        ;;
    *)
        echo "ci.sh: unknown argument $1 (try --list)" >&2
        exit 2
        ;;
    esac
    shift
done

# stage <name> <cmd...> — run one CI stage, timing it. With --list, just
# print the name; with --only, skip stages not selected.
RAN=0
stage() {
    local name=$1
    shift
    if [ "$LIST_ONLY" -eq 1 ]; then
        echo "$name"
        return 0
    fi
    if [ "${#ONLY[@]}" -gt 0 ]; then
        local selected=0 want
        for want in "${ONLY[@]}"; do
            [ "$want" = "$name" ] && selected=1
        done
        [ "$selected" -eq 1 ] || return 0
    fi
    RAN=$((RAN + 1))
    echo "==> ${name}"
    local t0=$SECONDS
    "$@"
    echo "    (${name}: $((SECONDS - t0))s)"
}

# Shellcheck gate on this script itself. Skips loudly when the tool is
# not installed (local boxes); CI images have it.
shellcheck_ci() {
    if ! command -v shellcheck >/dev/null 2>&1; then
        echo "    SKIP: shellcheck not installed; install it to lint ci.sh locally"
        return 0
    fi
    shellcheck ci.sh
}

stage "shellcheck" shellcheck_ci

stage "fmt" cargo fmt --all -- --check

stage "clippy" cargo clippy --workspace --all-targets -- -D warnings

stage "build" cargo build --workspace --release

stage "test" cargo test --workspace -q

oldenc() {
    cargo run --release -q -p olden-bench --bin oldenc -- "$@"
}

# Fuzz smoke: 500 seeds (cargo test runs 150) through every oracle —
# round-trip, typecheck, pass totality, cross-pass consistency,
# metamorphic invariance — plus the non-vacuity gate (every seeded
# ill-typed mutation class must be rejected with its matching TC0xx
# code). Deterministic: a failure shrinks to a reproducer under
# tests/corpus/ and replays in cargo test.
stage "fuzz-smoke" \
    oldenc fuzz --seeds 500

# Net parity: every benchmark re-run across real worker processes over
# loopback TCP, counters byte-equal to the simulator, plus seeded chaos
# schedules over the sockets and a global-knowledge pass so the
# coherence frames cross real sockets in CI too — and the only exercise
# of the `oldenc net-worker` re-entry. Exit 3 means the sandbox denies
# loopback; skip gracefully rather than fail.
net_parity() {
    local rc=0
    oldenc net --procs 4 --seeds 2 || rc=$?
    if [ "$rc" -eq 3 ]; then
        echo "    (net parity skipped: loopback TCP unavailable)"
        return 0
    elif [ "$rc" -ne 0 ]; then
        return "$rc"
    fi
    oldenc net --procs 4 --protocol global || rc=$?
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
        return "$rc"
    fi
}

stage "net-parity" net_parity

# Bench harness: perf/ is a package of its own with path-deps on
# crates/*, so a refactor can break it without the workspace build or
# tests noticing. The smoke run builds it and checks every workload's
# outputs and every BENCHMARK.json metric name (no timing verdicts).
# Exit 3 is its "loopback TCP unavailable" code, as for net-parity.
bench_harness() {
    local rc=0
    bash perf/run.sh --smoke || rc=$?
    if [ "$rc" -eq 3 ]; then
        echo "    (bench harness skipped: loopback TCP unavailable)"
        return 0
    fi
    return "$rc"
}

stage "bench-harness" bench_harness

if [ "$LIST_ONLY" -eq 1 ]; then
    exit 0
fi
if [ "${#ONLY[@]}" -gt 0 ] && [ "$RAN" -eq 0 ]; then
    echo "ci.sh: no stage matched ${ONLY[*]} (see --list)" >&2
    exit 2
fi
echo "CI green in ${SECONDS}s (${RAN} stage(s))."
