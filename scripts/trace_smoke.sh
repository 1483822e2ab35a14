#!/bin/sh
# End-to-end check of the tracing pipeline (the CI trace-smoke job):
# record a small traced DDoS run, validate the JSONL trace structurally,
# run the failure analysis, convert to Chrome trace_event JSON, and
# validate that too — offline after the first step. Then pin the trace
# bytes of every traced family: each run listed in
# testdata/regress/trace_digests.txt (`alias probes run sha256`) is
# recorded at -shards 1 and -shards 4 and must hash to its line.
set -eu

cd "$(dirname "$0")/.."

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

echo "== record: traced 120-probe spec-H run ==" >&2
go run ./cmd/dikes -probes 120 -exp H \
    -trace "$dir/run.jsonl" -trace-chrome "$dir/run-chrome.json" \
    -progress ddos >/dev/null

echo "== validate JSONL ==" >&2
go run ./cmd/dikes trace -validate "$dir/run.jsonl"

echo "== summary ==" >&2
go run ./cmd/dikes trace "$dir/run.jsonl"

echo "== first-failure analysis ==" >&2
go run ./cmd/dikes trace -fail "$dir/run.jsonl"

echo "== Chrome conversion (offline) matches the run's own export ==" >&2
go run ./cmd/dikes trace -chrome "$dir/converted.json" "$dir/run.jsonl"
go run ./cmd/dikes trace -validate-chrome "$dir/converted.json"
go run ./cmd/dikes trace -validate-chrome "$dir/run-chrome.json"

digests=testdata/regress/trace_digests.txt
go build -o "$dir/dikes" ./cmd/dikes
for shards in 1 4; do
    echo "== trace digests at -shards $shards ==" >&2
    out="$dir/s$shards"
    mkdir "$out"
    awk '{print $1, $2}' "$digests" | sort -u | while read -r alias probes; do
        exp=""
        if [ "$alias" = ddos ]; then
            exp="-exp H" # the file pins experiment H only
        fi
        "$dir/dikes" -shards "$shards" -probes "$probes" $exp \
            -trace "$out/$alias.jsonl" "$alias" >/dev/null
    done
    while read -r alias probes run want; do
        f="$out/$alias-$run.jsonl"
        [ -f "$f" ] || f="$out/$alias.jsonl" # a single run keeps the bare path
        got="$(sha256sum "$f" | cut -d' ' -f1)"
        if [ "$got" != "$want" ]; then
            echo "trace digest: $alias -probes $probes run $run at -shards $shards: $got, want $want" >&2
            exit 1
        fi
    done <"$digests"
done

echo "trace smoke OK" >&2
