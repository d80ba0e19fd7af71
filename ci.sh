#!/usr/bin/env bash
# Tier-1 CI gate in eleven stages — lines, shellcheck, fmt, clippy, doc,
# build, test, one-cpu, fuzz-smoke, net-parity, bench-harness — all
# offline. Each stage reports its wall time; the trailer totals them.
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
#                      (bench-harness below builds it, smoke-runs it,
#                      self-tests its pins and runs its unit tests)
#
# Every sim-vs-backend sweep likewise runs once. The tests that re-ran
# a sweep a golden row already runs are gone; each assertion they made
# is still made here:
#
#   chaos_parity.rs, ten *_survives_chaos sweeps (100 seeds x 4 procs)
#                   -> the `chaos` row (32 seeds x 8 procs): value, every
#                      RunStats/CacheStats counter, pages and messages via
#                      chaos_report's `equivalent`; drops/dups/delayed from
#                      the fault log pinned next to retries/suppressed
#                      from the transport counters. Conservation: the
#                      self-check in assemble_report, on every run. The
#                      100-seed sweep runs nightly (deep-fuzz.yml).
#   backend_parity.rs, local-knowledge value/counter/determinism tests
#                   -> the `run` row (ten kernels x 8 procs, every counter
#                      and a `parity:` line); sim values vs references:
#                      tests/integration.rs
#   net-parity      -> `oldenc net --procs 4 --seeds 2` and `--protocol
#                      global` were net_parity.rs's checks; the stage now
#                      runs only what no test can: oldenc as its own worker,
#                      on TreeAdd and Perimeter
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

# Non-test lines of the Rust files under a directory: a file counts up
# to and including its first `#[cfg(test)]` line.
src_lines() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { tests = 0 }
        !tests { n++ }
        /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
        END { print n + 0 }' {} +
}

# Non-test lines per crate under crates/*/src and their total, then the
# bench harness's perf/src outside it. Informational: it gates nothing.
lines() {
    local dir n total=0
    for dir in crates/*/src; do
        n=$(src_lines "$dir")
        total=$((total + n))
        printf '    %-12s %6d\n' "$(basename "$(dirname "$dir")")" "$n"
    done
    printf '    %-12s %6d\n' total "$total"
    printf '    %-12s %6d\n' perf/src "$(src_lines perf/src)"
}

stage "lines" lines

stage "shellcheck" shellcheck_ci

stage "fmt" cargo fmt --all -- --check

stage "clippy" cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings as errors: a moved or renamed item breaks the
# intra-doc links that name it.
stage "doc" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

stage "build" cargo build --workspace --release

stage "test" cargo test --workspace -q

# The thread and net backends' tests again on a single CPU. perf/ pins
# each workload to one CPU, where a woken thread preempts the thread that
# woke it; on every core those hand-offs never interleave that way. A
# client that waits for replies while its worker waits for more input
# would hang here first. Built on every core, run on CPU 0. Skips loudly
# when taskset is not installed; the net socket tests skip themselves
# loudly when the sandbox denies loopback TCP.
one_cpu() {
    if ! command -v taskset >/dev/null 2>&1; then
        echo "    SKIP: taskset not installed; install util-linux to test on one CPU"
        return 0
    fi
    cargo test --release -q -p olden-exec -p olden-net --no-run
    taskset -c 0 cargo test --release -q -p olden-exec -p olden-net
}

stage "one-cpu" one_cpu

oldenc() {
    cargo run --release -q -p olden-bench --bin oldenc -- "$@"
}

# Fuzz smoke: 500 seeds (cargo test runs 150) through every oracle —
# round-trip, typecheck, pass totality, cross-pass consistency (the
# optimizer and the mech table agree site by site on the mechanism, the
# same oracle the nightly 5 000-seed deep-fuzz runs), metamorphic
# invariance — plus the non-vacuity gate (every seeded
# ill-typed mutation class must be rejected with its matching TC0xx
# code). Deterministic: a failure shrinks to a reproducer under
# tests/corpus/ and replays in cargo test.
stage "fuzz-smoke" \
    oldenc fuzz --seeds 500

# Net parity: the only exercise of `oldenc` re-entering itself as its
# own worker process (`oldenc net-worker`) — the two kernels of the
# benchmark's net-loopback workload on two worker processes over loopback
# TCP: TreeAdd (migration frames) and Perimeter (cache-probe, install and
# line-fetch frames), counters byte-equal to the simulator, plus one
# chaos seed each over the sockets. Every other net check is in
# net_parity.rs. Exit 3 means the sandbox denies loopback; skip
# gracefully rather than fail.
net_parity() {
    local rc=0
    oldenc net TreeAdd --procs 2 --seeds 1 || rc=$?
    if [ "$rc" -eq 3 ]; then
        echo "    (net parity skipped: loopback TCP unavailable)"
        return 0
    fi
    [ "$rc" -eq 0 ] || return "$rc"
    oldenc net Perimeter --procs 2 --seeds 1
}

stage "net-parity" net_parity

# Bench harness: perf/ is a package of its own with path-deps on
# crates/*, so a refactor can break it without the workspace build or
# tests noticing: perf/src/layers.rs builds `Request` values by field
# name, so renaming a field of the message table in exec/src/msg.rs or
# changing its type breaks perf/ alone. It also builds
# `ArrivalKind::Return(vec![..])`, so changing that payload's type breaks
# perf/ alone too. Three checks, in order:
#   --smoke      builds the harness and checks every workload's outputs
#                (the perf/expected/seed0.json pins, among them every
#                interpreted program's checksum) and every BENCHMARK.json
#                metric name; no timing verdicts;
#   --self-test  (~1 s) proves those pins can fail: with one pinned value
#                flipped, sim-kernels, dsl-compile and dsl-interp must
#                each count failed jobs and exit non-zero;
#   perf's own unit tests, built beside the harness in target/perf.
# Exit 3 is the smoke's "loopback TCP unavailable" code, as for
# net-parity.
bench_harness() {
    local rc=0
    bash perf/run.sh --smoke || rc=$?
    if [ "$rc" -eq 3 ]; then
        echo "    (bench harness skipped: loopback TCP unavailable)"
        return 0
    fi
    [ "$rc" -eq 0 ] || return "$rc"
    bash perf/run.sh --self-test
    CARGO_TARGET_DIR=target/perf cargo test --manifest-path perf/Cargo.toml -q
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
