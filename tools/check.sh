#!/usr/bin/env bash
# The full local gate: formatting, release build, tests, checkpoint smoke,
# the benchmark's output checks, domain lints. Offline-safe — nothing here
# touches the network. CI's `check` job runs this script and its
# `navbench-checks` job runs tools/navbench-checks.sh, which this script
# also calls, so a clean local run means both jobs pass. The other CI jobs
# (bench, obs/ingest/ops/quality/checkpoint smokes, analyzer fixtures,
# manifest diff) are not repeated here.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "no tracked target/ artifacts"
if git ls-files -- 'target/*' | grep -q .; then
  echo "error: build artifacts under target/ are tracked by git:" >&2
  git ls-files -- 'target/*' | head >&2
  echo "fix: git rm -r --cached target  (target/ is covered by .gitignore)" >&2
  exit 1
fi

step "bash -n tools/bench-ab.sh"
bash -n tools/bench-ab.sh

step "cargo fmt --all -- --check"
cargo fmt --all -- --check

step "cargo build --workspace --release"
cargo build --workspace --release

step "cargo test --workspace -q"
cargo test --workspace -q

step "checkpoint/restore smoke (serve-replay --checkpoint-every / --restore)"
CK_DIR="$(mktemp -d)"
trap 'rm -rf "$CK_DIR"' EXIT
./target/release/navarchos serve-replay \
  --vehicles 10 --days 15 --seed 7 --shards 2 --dirty 99 \
  --checkpoint-every 3000 --checkpoint "$CK_DIR/ck.bin" --verify > /dev/null
test -s "$CK_DIR/ck.bin"
./target/release/navarchos serve-replay \
  --vehicles 10 --days 15 --seed 7 --shards 2 --dirty 99 \
  --restore "$CK_DIR/ck.bin" --verify > /dev/null
# A version-skewed checkpoint must be refused with the named error.
printf '\x09' | dd of="$CK_DIR/ck.bin" bs=1 seek=28 count=1 conv=notrunc 2> /dev/null
if ./target/release/navarchos serve-replay \
     --vehicles 10 --days 15 --seed 7 --shards 2 --dirty 99 \
     --restore "$CK_DIR/ck.bin" > /dev/null 2> "$CK_DIR/err.txt"; then
  echo "error: restoring a version-9 checkpoint exited 0" >&2
  exit 1
fi
grep -q 'snapshot version mismatch' "$CK_DIR/err.txt" || {
  echo "error: missing the named version-mismatch error:" >&2
  cat "$CK_DIR/err.txt" >&2
  exit 1
}

step "navbench output checks (tools/navbench-checks.sh)"
tools/navbench-checks.sh

step "cargo run -p xtask -- lint"
cargo run -p xtask -- lint

step "cargo run -p xtask -- analyze"
cargo run -p xtask -- analyze

step "all checks passed"
