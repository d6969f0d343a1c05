#!/usr/bin/env bash
# Builds the ladder and the site binary it spawns (both bins of this
# package), then runs the ladder with the caller's arguments. Run from
# the root of a checkout: `bash ladder/run.sh --workload local_update
# --seed 7 --seconds 8 --trace 0`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/camelot-ladder" "$@"
