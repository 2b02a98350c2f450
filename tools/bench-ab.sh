#!/usr/bin/env bash
# A/B of navbench's end-to-end metrics on one host: this checkout (the
# change) against the commit REV (the base).
#
#   tools/bench-ab.sh REV [WORKLOAD] [PAIRS] [SECONDS] [SEED]
#
#   WORKLOAD  replay_clean | replay_dirty | paper_eval (default paper_eval)
#   PAIRS     alternating pairs of runs (default 8)
#   SECONDS   navbench --seconds of each run (default 10)
#   SEED      navbench --seed, for a held-out check (default navbench's)
#
# REV is exported with `git archive`, and this checkout as it stands
# (tracked and untracked files, minus ignored ones) is copied, into two
# sibling temporary directories, and navbench is built offline in each.
# The two binaries then run alternately, the order swapped every pair,
# both from this checkout's root: the working directory moves
# peak_rss_mb, and paper_eval reads results/ from it. Each run executes a
# fresh copy of its binary at one fixed path, because the state of an
# executable's file moves peak_rss_mb too: the same bytes have read
# from 93.5 to 104.8 MB on paper_eval depending on how and when the file
# was written. For each end-to-end metric of BENCHMARK.json the script
# prints every pair, then each side's median and interquartile range, the
# change of the medians and in how many pairs the change was better. It
# exits 1 when any run reports a failed check. Nothing outside the
# temporary directories is written, and they are removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: tools/bench-ab.sh REV [WORKLOAD] [PAIRS] [SECONDS] [SEED]"
rev=${1:?$usage}
workload=${2:-paper_eval}
pairs=${3:-8}
seconds=${4:-10}
seed=${5:-}
case "$workload" in
  replay_clean | replay_dirty | paper_eval) ;;
  *) echo "error: unknown workload '$workload'; $usage" >&2; exit 2 ;;
esac
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "error: PAIRS must be a positive integer" >&2; exit 2; }
[[ "$seconds" =~ ^[0-9]+([.][0-9]+)?$ ]] || { echo "error: SECONDS must be a number" >&2; exit 2; }
[[ "$seed" =~ ^[0-9]*$ ]] || { echo "error: SEED must be a non-negative integer" >&2; exit 2; }
seed_args=()
[ -n "$seed" ] && seed_args=(--seed "$seed")
commit=$(git rev-parse --verify --quiet "$rev^{commit}") || {
  echo "error: '$rev' is not a commit" >&2
  exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "building navbench at $commit (base) and of this checkout (change)" >&2
mkdir "$tmp/base" "$tmp/change"
git archive "$commit" | tar -x -C "$tmp/base"
git ls-files -z --cached --others --exclude-standard |
  tar --null --ignore-failed-read -T - -cf - | tar -x -C "$tmp/change"
for side in base change; do
  cargo build --release --quiet --offline --manifest-path "$tmp/$side/navbench/Cargo.toml"
done

run() { # side
  cp "$tmp/$1/navbench/target/release/navbench" "$tmp/navbench"
  "$tmp/navbench" --workload "$workload" --seconds "$seconds" "${seed_args[@]}" --trace 0 |
    tail -n 1 >> "$tmp/$1.jsonl"
  rm "$tmp/navbench"
}

for ((i = 1; i <= pairs; i++)); do
  echo "pair $i/$pairs" >&2
  if ((i % 2)); then run base; run change; else run change; run base; fi
done

python3 - "$tmp/base.jsonl" "$tmp/change.jsonl" BENCHMARK.json "$workload" "$commit" "${seed:-default}" << 'EOF'
import json
import statistics
import sys

base_path, change_path, spec_path, workload, commit, seed = sys.argv[1:]
base = [json.loads(line) for line in open(base_path)]
change = [json.loads(line) for line in open(change_path)]
metrics = json.load(open(spec_path))["end_to_end"]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"bench-ab {workload} (seed {seed}): base {commit[:12]} vs this checkout, {len(base)} pairs")
for m in metrics:
    name, unit, lower = m["name"], m["unit"], m["better"] == "lower"
    b = [r["metrics"][name]["value"] for r in base]
    c = [r["metrics"][name]["value"] for r in change]
    print(f"\n{name} ({unit}, {'lower' if lower else 'higher'} is better)")
    for i, (x, y) in enumerate(zip(b, c), 1):
        print(f"  pair {i:2}: base {x:12.4f}  change {y:12.4f}  {100 * (y - x) / x:+7.2f}%")
    bq, cq = quartiles(b), quartiles(c)
    better = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    print(f"  base   median {bq[1]:.4f} [IQR {bq[0]:.4f}-{bq[2]:.4f}]")
    print(f"  change median {cq[1]:.4f} [IQR {cq[0]:.4f}-{cq[2]:.4f}]")
    gap = abs(cq[1] - bq[1])
    print(
        f"  change {100 * (cq[1] - bq[1]) / bq[1]:+.2f}%, better in {better}/{len(b)} pairs, "
        f"median gap {gap:.4f} vs base IQR {bq[2] - bq[0]:.4f}"
    )

failed = [(side, i + 1, r["failed"]) for side, rs in (("base", base), ("change", change))
          for i, r in enumerate(rs) if r["failed"] != 0]
for side, i, n in failed:
    print(f"error: {side} run of pair {i} reported {n} failed check(s)", file=sys.stderr)
sys.exit(1 if failed else 0)
EOF
