#!/bin/sh
# Regenerate the committed report tables (paper_run.txt,
# paper_run_adversary.txt, paper_run_transport.txt,
# paper_run_timeline.txt, paper_run_ablation.txt) from the declarative
# scenario specs in examples/specs/ via the campaign runner.
#
# Each campaign is run twice — at -shards 1 and -shards 4 — and the two
# outputs are diffed (minus the wall-time line) to enforce the engine's
# determinism contract before anything is written. The committed file is
# the -shards 1 output with the wall-time line stripped and an invocation
# header prepended.
set -eu

cd "$(dirname "$0")/.."

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

regen() {
    out="$1"
    specs="$2"
    note="$3"

    echo "== campaign $specs (shards 1) ==" >&2
    go run ./cmd/dikes campaign "$specs" | grep -v '^total wall time' >"$dir/s1.txt"
    echo "== campaign $specs (shards 4) ==" >&2
    go run ./cmd/dikes -shards 4 campaign "$specs" | grep -v '^total wall time' >"$dir/s4.txt"
    diff "$dir/s1.txt" "$dir/s4.txt" >&2

    {
        echo "# dikes campaign — committed report tables"
        echo "#"
        echo "# Invocation: go run ./cmd/dikes campaign $specs"
        echo "# Output below is byte-identical with -shards 4 (verified by diff,"
        echo "# excluding the wall-time line), per the engine's determinism contract."
        if [ -n "$note" ]; then
            echo "#"
            echo "# $note"
        fi
        echo "#"
        echo ""
        cat "$dir/s1.txt"
    } >"$out"
    echo "wrote $out" >&2
}

regen paper_run.txt examples/specs/paper \
    "Earlier revisions of this file were produced by the pre-sharding
# monolithic engine (-shards 0), whose RNG stream differs from the
# sharded engine; counts shifted slightly when the campaign runner
# standardised on the sharded path (-shards >= 1)."
regen paper_run_adversary.txt examples/specs/adversary ""
regen paper_run_transport.txt examples/specs/transport.json ""
regen paper_run_timeline.txt examples/specs/timeline.json \
    "Per-bucket simulated-time series (observability.timeline): answer/
# failure/stale-serve/retry counts across the attack event, annotated
# with the phase boundaries. The sparkline is the answer-rate series."
regen paper_run_ablation.txt examples/specs/ablation \
    "The paper's §8 operator advice as before/after runs; read the effect
# off the consolidated Table 4 and the campaign summary. Rows 1-2 are
# experiment A without and with serve-stale on the direct resolvers,
# rows 3-4 experiment B without and with prefetch on them (a hit with
# under 0.9 of the TTL left refreshes in the background), rows Nx
# experiment H's workload with capacity_qps N against attack_qps 10
# (10x is the first capacity the flood does not exceed: no loss)."
