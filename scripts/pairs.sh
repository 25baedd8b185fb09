#!/usr/bin/env bash
# Runs the end-to-end benchmark on two source trees in alternating pairs and
# prints, for each end-to-end metric that BENCHMARK.json declares, each
# side's median with its quartiles and the number of pairs the change won:
#
#   scripts/pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD SEED PAIRS
#
# Pair i runs `bash perfbench/run.sh --workload WORKLOAD --seed SEED
# --seconds 10 --trace 0` once from each tree: odd pairs run the parent
# first, even pairs the change. Both trees are built before the first run,
# each into its own `.bench_build` directory (run.sh's CARGO_TARGET_DIR), and
# the script writes nothing under perfbench/. The last JSON line of every run
# is appended to parent.jsonl or change.jsonl in $PAIRS_OUT (default: a new
# temporary directory). A run that fails its correctness gate stops the
# script. Needs jq and python3.
set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD SEED PAIRS" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5
out=${PAIRS_OUT:-$(mktemp -d)}
mkdir -p "$out"
: >"$out/parent.jsonl"
: >"$out/change.jsonl"

for tree in "$parent" "$change"; do
  (cd "$tree" && CARGO_TARGET_DIR="$tree/.bench_build" cargo build --release --quiet \
    --offline --manifest-path perfbench/Cargo.toml --bins)
done

# run_side TREE SIDE PAIR: one benchmark run, its JSON line kept under SIDE.
run_side() {
  local line
  line=$(cd "$1" && CARGO_TARGET_DIR="$1/.bench_build" bash perfbench/run.sh \
    --workload "$workload" --seed "$seed" --seconds 10 --trace 0 | tail -n 1)
  if [ "$(jq -r '.correct' <<<"$line")" != "true" ]; then
    echo "pair $3 $2: correctness gate failed: $line" >&2
    exit 1
  fi
  echo "$line" >>"$out/$2.jsonl"
  echo "pair $3 $2: $(jq -c '.metrics | map_values(.value)' <<<"$line")" >&2
}

for pair in $(seq 1 "$pairs"); do
  if ((pair % 2)); then
    run_side "$parent" parent "$pair"
    run_side "$change" change "$pair"
  else
    run_side "$change" change "$pair"
    run_side "$parent" parent "$pair"
  fi
done

jq -c '.end_to_end[] | {name, better, bound}' "$change/BENCHMARK.json" >"$out/metrics.jsonl"
python3 - "$out" "$workload" "$seed" <<'PY'
import json
import statistics
import sys

out, workload, seed = sys.argv[1:]


def values(side, name):
    with open(f"{out}/{side}.jsonl") as f:
        return [json.loads(line)["metrics"][name]["value"] for line in f]


def number(x):
    return str(int(x)) if x == int(x) else f"{x:.5g}"


def summary(xs):
    q1, q2, q3 = (
        statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    )
    return f"{number(q2)} [{number(q1)}, {number(q3)}]"


with open(f"{out}/metrics.jsonl") as f:
    metrics = [json.loads(line) for line in f]
rows = [("metric", "parent", "change", "change/parent", "bound", "change won")]
for m in metrics:
    p, c = values("parent", m["name"]), values("change", m["name"])
    sign = -1 if m["better"] == "lower" else 1
    won = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
    ties = sum(cv == pv for pv, cv in zip(p, c))
    mp, mc = statistics.median(p), statistics.median(c)
    ratio = f"{mc / mp:.4f}" if mp else "-"
    rows.append(
        (m["name"], summary(p), summary(c), ratio, str(m["bound"]),
         f"{won}/{len(p)} (ties {ties})")
    )
widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
print(f"{workload} seed {seed}: median [quartiles] per side; pairs alternate the order")
for row in rows:
    print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
print(f"raw runs: {out}")
PY
