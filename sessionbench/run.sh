#!/usr/bin/env bash
# Build the shipped qbe-server binary and the benchmark program from source, then run one
# benchmark workload. Run from the root of a checkout:
#
#   bash sessionbench/run.sh --workload twig-small --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/server || ! -f sessionbench/Cargo.toml ]]; then
    echo "sessionbench: run from the root of a qbe checkout (no workspace sources here)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p qbe-bench --bin qbe-server >&2
cargo build --release --offline --quiet --manifest-path sessionbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/sessionbench" --server "$CARGO_TARGET_DIR/release/qbe-server" "$@"
