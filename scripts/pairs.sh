#!/usr/bin/env bash
# Runs the end-to-end benchmark on two source trees in alternating pairs and
# prints, for each end-to-end metric that BENCHMARK.json declares, each
# side's median with its quartiles, the number of pairs the change won and a
# verdict:
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
#
# The verdict applies the first rule that holds, with quartiles taken over
# each side's runs and "better" in the metric's declared direction:
#   unresolved  the parent's interquartile range exceeds the bound times its
#               median, and not every change run beats every parent run;
#   worse       the change's median is worse than the parent's by more than
#               the bound (relative to the parent's median);
#   gain        the change won at least nine tenths of the pairs (ties count
#               for neither side) and the medians differ by more than the
#               parent's interquartile range;
#   ok          otherwise.
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


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


def summary(xs):
    q1, q2, q3 = quartiles(xs)
    return f"{number(q2)} [{number(q1)}, {number(q3)}]"


def verdict(p, c, sign, bound, won):
    q1, mp, q3 = quartiles(p)
    mc = statistics.median(c)
    if q3 - q1 > bound * abs(mp) and not min(sign * x for x in c) > max(sign * x for x in p):
        return "unresolved"
    if sign * (mc - mp) < -bound * abs(mp):
        return "worse"
    if won >= 0.9 * len(p) and abs(mc - mp) > q3 - q1:
        return "gain"
    return "ok"


with open(f"{out}/metrics.jsonl") as f:
    metrics = [json.loads(line) for line in f]
rows = [("metric", "parent", "change", "change/parent", "bound", "change won", "verdict")]
for m in metrics:
    p, c = values("parent", m["name"]), values("change", m["name"])
    sign = -1 if m["better"] == "lower" else 1
    won = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
    ties = sum(cv == pv for pv, cv in zip(p, c))
    mp, mc = statistics.median(p), statistics.median(c)
    ratio = f"{mc / mp:.4f}" if mp else "-"
    rows.append(
        (m["name"], summary(p), summary(c), ratio, str(m["bound"]),
         f"{won}/{len(p)} (ties {ties})", verdict(p, c, sign, m["bound"], won))
    )
widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
print(f"{workload} seed {seed}: median [quartiles] per side; pairs alternate the order")
for row in rows:
    print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
print(f"raw runs: {out}")
PY
