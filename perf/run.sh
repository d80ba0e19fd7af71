#!/usr/bin/env bash
# The one command: build the harness, then run it.
#
#   perf/run.sh [--seed S] [--workload W] [--trace] [--smoke] [--sets N] [--out PATH]
#   perf/run.sh compare A.json B.json | --self-test | bless
#
# With --workload the last line of standard output is the result object a
# driver reads; without it every workload runs in its own pinned child
# process and perf/out/results.json is written. See perf/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Build into the directory a driver names, else beside the repository's
# own build, never into it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/perf}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
# Not `exec`: the harness reads its children's peak memory, and a process
# that replaced this shell would inherit cargo as a child.
"$CARGO_TARGET_DIR/release/olden-perf" "$@"
