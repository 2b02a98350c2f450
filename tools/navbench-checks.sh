#!/usr/bin/env bash
# The benchmark's output checks: navbench's own tests, then every workload
# for one second untraced. navbench's checks are a bit-exact alarm oracle
# for the served path and for the paper evaluation; navbench exits 0 even
# when checks fail, so this reads the "failed" field of the JSON result on
# the last line of each run and fails unless it is 0.
#
# Called by tools/check.sh and by CI's navbench-checks job. Offline-safe.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --manifest-path navbench/Cargo.toml
cargo build --release --offline --manifest-path navbench/Cargo.toml
for w in replay_clean replay_dirty paper_eval; do
  last=$(./navbench/target/release/navbench --workload "$w" --seconds 1 --trace 0 | tail -n 1)
  echo "$w: $last"
  failed=$(printf '%s' "$last" | python3 -c 'import json, sys; print(json.load(sys.stdin)["failed"])')
  if [ "$failed" != "0" ]; then
    echo "error: navbench $w reported $failed failed check(s)" >&2
    exit 1
  fi
done
