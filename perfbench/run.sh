#!/usr/bin/env bash
# Builds the benchmark (and the serve binary it drives) in release mode, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
# else to perfbench/target.
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml --bins
exec "$target/release/perfbench" "$@"
