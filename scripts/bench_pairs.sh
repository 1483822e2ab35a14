#!/bin/sh
# Alternating parent/change runs of the repo's benchmark, recorded as
# BENCH_PR<n>.json (ROADMAP item 5(a); choosing-metrics guide §8).
#
#   scripts/bench_pairs.sh <parent-ref> <workload> <seed> <pairs> [out.json]
#
# The parent is exported with `git archive` into a temporary directory
# (under $TMPDIR; the repository's own .git is not touched), and both
# sides run
#
#   go run ./benchmark --workload W --seed S --seconds 15 --trace 0
#
# from their own tree, parent and change alternately; which side goes
# first alternates from pair to pair too. Every run made is in the file:
# out.json (default BENCH_pairs.json) is an array that gains one object
# per invocation,
#
#   {commit, parent, workload, seed, pairs, failed: {parent, change},
#    metrics: {name: {parent: [...], change: [...], parent_median,
#    change_median, parent_iqr, wins}}}
#
# where `wins` counts the pairs in which the change read better (ties
# count for neither side) and parent_iqr is the distance between the
# parent's quartiles. `commit` is HEAD, with "+dirty" when the tree the
# change side ran from has uncommitted edits. Needs jq.
set -eu

[ $# -ge 4 ] || { sed -n '2,25p' "$0" >&2; exit 2; }
parent_ref=$1 workload=$2 seed=$3 pairs=$4 out=${5:-BENCH_pairs.json}

cd "$(dirname "$0")/.."
command -v jq >/dev/null || { echo "bench_pairs: jq not found" >&2; exit 1; }
parent=$(git rev-parse --short=12 "$parent_ref^{commit}")
commit=$(git rev-parse --short=12 HEAD)
git diff --quiet HEAD -- || commit="$commit+dirty"

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkdir "$dir/parent"
git archive "$parent" | tar -x -C "$dir/parent"

# one <side> <tree>: run the benchmark there, append its JSON line.
one() {
    (cd "$2" && go run ./benchmark --workload "$workload" --seed "$seed" --seconds 15 --trace 0) |
        tail -n 1 >>"$dir/$1.jsonl"
    echo "bench_pairs: $workload pair $i/$pairs $1: $(tail -n 1 "$dir/$1.jsonl" |
        jq -c '{failed} + (.metrics | {qps, cpu_us_per_query, peak_rss_mib, setup_s} | map_values(.value))')" >&2
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        one parent "$dir/parent"; one change .
    else
        one change .; one parent "$dir/parent"
    fi
    i=$((i + 1))
done

# The end-to-end metrics and their better direction, as BENCHMARK.json
# declares them.
jq -n --arg commit "$commit" --arg parent "$parent" --arg workload "$workload" \
    --argjson seed "$seed" --argjson pairs "$pairs" \
    --slurpfile decl BENCHMARK.json \
    --slurpfile p "$dir/parent.jsonl" --slurpfile c "$dir/change.jsonl" '
  def q(f): sort as $s | ($s | length) as $n | (($n - 1) * f) as $x
    | ($x | floor) as $lo | ([$lo + 1, $n - 1] | min) as $hi
    | $s[$lo] + ($s[$hi] - $s[$lo]) * ($x - $lo);
  {commit: $commit, parent: $parent, workload: $workload, seed: $seed, pairs: $pairs,
   failed: {parent: ($p | map(.failed) | add), change: ($c | map(.failed) | add)},
   metrics: ($decl[0].end_to_end | map(. as $m
     | ($p | map(.metrics[$m.name].value)) as $pv
     | ($c | map(.metrics[$m.name].value)) as $cv
     | {key: $m.name, value: {
         parent: $pv, change: $cv,
         parent_median: ($pv | q(0.5)), change_median: ($cv | q(0.5)),
         parent_iqr: (($pv | q(0.75)) - ($pv | q(0.25))),
         wins: ([range(0; $pv | length)
                 | if $m.better == "higher" then $cv[.] > $pv[.] else $cv[.] < $pv[.] end
                 | select(.)] | length)}}) | from_entries)}' >"$dir/result.json"

# Append to the array in $out (created on first use).
if [ -s "$out" ]; then
    jq --slurpfile r "$dir/result.json" '. + $r' "$out" >"$dir/out.json"
else
    jq -s '.' "$dir/result.json" >"$dir/out.json"
fi
cp "$dir/out.json" "$out"
echo "bench_pairs: wrote $out" >&2
