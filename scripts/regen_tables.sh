#!/bin/sh
# Regenerate the committed report tables (paper_run.txt,
# paper_run_adversary.txt, paper_run_transport.txt,
# paper_run_timeline.txt, paper_run_ablation.txt) from the declarative
# scenario specs in examples/specs/ via the campaign runner, and
# paper_run_fidelity.txt, the scorecard section of `dikes check`.
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

# regen <out> <subcommand and specs> <note> [<keep>]: with <keep>, only
# the output from the line <keep> on is compared and committed.
regen() {
    out="$1"
    cmd="$2"
    note="$3"
    keep="${4:-}"

    # $cmd is unquoted on purpose: the subcommand, then its specs.
    echo "== $cmd (shards 1) ==" >&2
    go run ./cmd/dikes $cmd | grep -v '^total wall time' | sed -n "/^$keep/,\$p" >"$dir/s1.txt"
    echo "== $cmd (shards 4) ==" >&2
    go run ./cmd/dikes -shards 4 $cmd | grep -v '^total wall time' | sed -n "/^$keep/,\$p" >"$dir/s4.txt"
    diff "$dir/s1.txt" "$dir/s4.txt" >&2

    {
        echo "# dikes ${cmd%% *} — committed report tables"
        echo "#"
        echo "# Invocation: go run ./cmd/dikes $cmd"
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

regen paper_run.txt "campaign examples/specs/paper" \
    "Earlier revisions of this file were produced by the pre-sharding
# monolithic engine (-shards 0), whose RNG stream differs from the
# sharded engine; counts shifted slightly when the campaign runner
# standardised on the sharded path (-shards >= 1)."
regen paper_run_adversary.txt "campaign examples/specs/adversary" ""
regen paper_run_transport.txt "campaign examples/specs/transport.json" ""
regen paper_run_timeline.txt "campaign examples/specs/timeline.json" \
    "Per-bucket simulated-time series (observability.timeline): answer/
# failure/stale-serve/retry counts across the attack event, annotated
# with the phase boundaries. The sparkline is the answer-rate series."
regen paper_run_ablation.txt "campaign examples/specs/ablation" \
    "The paper's §8 operator advice as before/after runs; read the effect
# off the consolidated Table 4 and the campaign summary. Rows 1-2 are
# experiment A without and with serve-stale on the direct resolvers,
# rows 3-4 experiment B without and with prefetch on them (a hit with
# under 0.9 of the TTL left refreshes in the background), rows Nx
# experiment H's workload with capacity_qps N against attack_qps 10
# (10x is the first capacity the flood does not exceed: no loss)."
regen paper_run_fidelity.txt check \
    "The paper's published values beside this campaign's readings of
# them (internal/experiment/check.go): the scorecard section of the
# output only, the campaign above it being paper_run.txt. abs err is
# the distance to the paper's value or range in the row's unit (points
# for %); rel err is that over the nearest paper bound." "---- scorecard ----"
