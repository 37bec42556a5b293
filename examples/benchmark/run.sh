#!/usr/bin/env bash
# Builds the benchmark, then runs the untraced suite and the traced suite.
# Extra arguments (--seed N, --seconds S, --smoke) reach both.
set -euo pipefail
cd "$(dirname "$0")/../.."
manifest=examples/benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-examples/benchmark/target}/release/benchmark"
"$bin" --all "$@"
"$bin" --all --traced --trace-out examples/benchmark/out/spans "$@"
