#!/usr/bin/env sh
# Tier-1 gate: rustfmt clean, release build, full test suite, invariant
# lint, clippy clean.
# Usage: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

# Formatting gate: any rustfmt diff in the workspace fails. edgebench/ is
# its own cargo workspace and is not covered by `--all`.
cargo fmt --all --check

# The root Cargo.toml's `default-members` lists every workspace member,
# so the plain build and `cargo test -q` cover the whole workspace
# (unit, integration and doc-tests), not only the root package.
cargo build --release
cargo test -q
# Rustdoc gate: broken intra-doc links and other doc warnings fail.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# Workspace invariants (bit-exactness, panic-freedom, LUT/kernel
# consistency): fails on any finding and refreshes LINT_REPORT.json.
cargo run -q --release -p nga-lint -- --json
# Differential oracle quick sweep (~50M cases): fails on any mismatch
# between the datapaths and the exact-arithmetic reference, and
# refreshes ORACLE_REPORT.quick.json. The exhaustive sweep (run
# `nga-oracle --json` without --quick, ~2^33 cases) maintains
# ORACLE_REPORT.json.
cargo run -q --release -p nga-oracle -- --quick --json --quiet
# Fault-injection quick sweep: exercises the NaR/saturation degradation
# paths and the checksum-verified LUT fallback (exit nonzero if any
# corrupted table fails to recover). Run twice into a scratch copy to
# prove the report is byte-deterministic, then refresh the committed
# FAULTS_REPORT.quick.json. The full sweep (`nga-faults --json`)
# maintains FAULTS_REPORT.json.
cargo run -q --release -p nga-faults -- --quick --json FAULTS_REPORT.quick.json --quiet >/dev/null
cargo run -q --release -p nga-faults -- --quick --json FAULTS_REPORT.quick.json.rerun --quiet >/dev/null
cmp FAULTS_REPORT.quick.json FAULTS_REPORT.quick.json.rerun || {
    echo "nga-faults: quick report is not byte-deterministic" >&2
    exit 1
}
rm -f FAULTS_REPORT.quick.json.rerun
# Observability trace: the quick workload's op-count/event report must be
# byte-identical across runs (no timestamps, no thread-dependent counts).
# Refreshes the committed TRACE_REPORT.quick.json. The full workload
# (`nga-bench --bin trace` without --quick) maintains TRACE_REPORT.json.
cargo run -q --release -p nga-bench --bin trace -- --quick >/dev/null
cp TRACE_REPORT.quick.json TRACE_REPORT.quick.json.rerun
cargo run -q --release -p nga-bench --bin trace -- --quick >/dev/null
cmp TRACE_REPORT.quick.json TRACE_REPORT.quick.json.rerun || {
    echo "nga-bench trace: quick report is not byte-deterministic" >&2
    exit 1
}
rm -f TRACE_REPORT.quick.json.rerun
cargo clippy --workspace --all-targets -- -D warnings
# edgebench (the repo benchmark) is its own cargo workspace and the only
# consumer of the nn/kernels/obs public surface outside this one, so
# build, test and lint it against the current crates.
cargo test --manifest-path edgebench/Cargo.toml --offline -q
cargo clippy --manifest-path edgebench/Cargo.toml --offline --all-targets -- -D warnings
