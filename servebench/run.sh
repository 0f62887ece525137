#!/usr/bin/env bash
# Builds the release daemon and the benchmark from source, then runs one
# benchmark run. From the root of a checkout:
#
#   bash servebench/run.sh --workload hot-prove --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
  echo "servebench: run from a full checkout (no workspace beside servebench/)" >&2
  exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p locert-serve --bin locert-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
  --daemon "$CARGO_TARGET_DIR/release/locert-serve" "$@"
