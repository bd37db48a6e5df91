#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it from the repository
# root. With no arguments: every workload, timed and traced pass, default
# seed. See benchmark/README.md for the options.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/syno-benchmark" "$@"
