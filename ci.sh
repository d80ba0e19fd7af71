#!/usr/bin/env bash
# Tier-1 CI gate: format, lint, build, test, golden surfaces, perf smoke —
# all offline. Each stage reports its wall time; the trailer totals them.
#
#   ./ci.sh                 run every stage
#   ./ci.sh --list          print the stage names and exit
#   ./ci.sh --only NAME     run one stage (repeatable; order preserved)
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

stage "lint-golden" \
    oldenc lint --golden tests/golden/oldenc-benchmarks.txt

stage "typecheck" \
    oldenc typecheck

stage "gen-golden" \
    oldenc gen --seed 0 --count 5 --golden tests/golden/oldenc-gen.txt

# Fuzz smoke: 500 seeds through every oracle — round-trip, typecheck,
# pass totality, cross-pass consistency, metamorphic invariance — plus
# the non-vacuity gate (every seeded ill-typed mutation class must be
# rejected with its matching TC0xx code). Deterministic: a failure
# shrinks to a reproducer under tests/corpus/ and replays in cargo test.
stage "fuzz-smoke" \
    oldenc fuzz --seeds 500

stage "opt-golden" \
    oldenc opt --golden tests/golden/oldenc-opt.txt

stage "select-golden" \
    oldenc select --golden tests/golden/oldenc-select.txt

stage "scheme-golden" \
    oldenc scheme --golden tests/golden/oldenc-scheme.txt

stage "predict" \
    oldenc predict

stage "elide" \
    oldenc elide

stage "chaos-golden" \
    oldenc chaos --seeds 32 --golden tests/golden/oldenc-chaos.txt

# Differential fuzz: 200 generated programs typechecked, mechanism-
# selected, lowered to the executable IR, and executed on the simulator
# vs the lockstep thread backend — byte-equal values, trips, and
# counters; every 8th seed also under fault injection; cost-model band
# conformance per seed. Deterministic: a divergence shrinks to a
# reproducer under tests/corpus/ and the surface pins against the
# golden (re-record with --bless).
stage "difftest" \
    oldenc difftest --seeds 200 --golden tests/golden/oldenc-difftest.txt

# Scheme matrix: the same 200-seed differential sweep under the other
# two Appendix-A coherence schemes, each against its own blessed golden.
# Together with the difftest stage above, every generated program is
# byte-equal across sim and exec under all three protocols.
scheme_matrix() {
    oldenc difftest --seeds 200 --protocol global \
        --golden tests/golden/oldenc-difftest-global.txt
    oldenc difftest --seeds 200 --protocol bilateral \
        --golden tests/golden/oldenc-difftest-bilateral.txt
}

stage "scheme-matrix" scheme_matrix

# Net parity: every benchmark re-run across real worker processes over
# loopback TCP, counters byte-equal to the simulator, plus seeded chaos
# schedules over the sockets and a global-knowledge pass so the
# coherence frames cross real sockets in CI too. Exit 3 means the
# sandbox denies loopback; skip gracefully rather than fail.
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

# Perf smoke: counters must equal the committed baseline exactly; wall
# times may drift up to 35% after calibration-normalizing host speed.
stage "perf-smoke" \
    oldenc bench --json /tmp/bench.json \
    --check BENCH_baseline.json --tolerance 0.35

if [ "$LIST_ONLY" -eq 1 ]; then
    exit 0
fi
if [ "${#ONLY[@]}" -gt 0 ] && [ "$RAN" -eq 0 ]; then
    echo "ci.sh: no stage matched ${ONLY[*]} (see --list)" >&2
    exit 2
fi
echo "CI green in ${SECONDS}s (${RAN} stage(s))."
