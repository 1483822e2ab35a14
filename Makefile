GO ?= go

.PHONY: all build test vet fmt race cross check scale-smoke trace-smoke fuzz cli-smoke report-regress digest-guard regen-tables size-guard obs-guard facade-guard

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .) && test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

# udprun's serialization is a lock shared by reader, timer and poster
# goroutines: its tests run ten times so interleavings get a chance.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/udprun

# udprun's blocking read is Linux-only (serve_blocking.go); every other
# system builds the poller read (serve_netpoll.go). Cross-building keeps
# both compiling.
CROSS_PKGS = ./cmd/... ./internal/... ./examples/... .
cross:
	GOOS=windows $(GO) build $(CROSS_PKGS)
	GOOS=darwin $(GO) build $(CROSS_PKGS)

check: vet obs-guard facade-guard build cross race

# One emit site in internal/recursive, one SetTrace/SetTimeline call in
# internal/experiment, one parallel fan-out per level (campaign runs,
# cells of a run), one seeded-stream constructor (lazyrand.New), scratch
# messages only in a cell's working set; one pack and one decode site in
# internal/netsim, one decode per engine, in its real-socket entry, and
# none in the experiment or the adversary; no pack per send: the resolver
# and the authoritative pack only a UDP reply whose uncompressed bound is
# over the client's limit (the TC=1 decision; authd's byte path repacks it
# truncated), the reflector to count a request's size, the stub never;
# one timer call: no AfterFuncArg, RefScheduler or clock.Real outside
# internal/clock; one time-series container: no RoundSeries or
# map[int]map[string] in internal/, and 2-D int64 bins only in
# internal/timeline; one upstream loop: one pickServer call in
# internal/recursive, in tryNextServer, and no fwd bit; one host table:
# one map[Addr] and no map[[2]Addr] in internal/netsim; and cell-owned
# resolver state: one make([]cached site in internal/cache, in the
# arena, and srtt/harvests keyed map[uint64] with no ridAddr or ridZone
# in internal/recursive. See scripts/obs_guard.sh.
obs-guard:
	./scripts/obs_guard.sh

# Every exported name in dikes.go is used as dikes.<Name> by another .go
# file, and every non-test internal/ package by another non-test package.
# See scripts/facade_guard.sh.
facade-guard:
	./scripts/facade_guard.sh

# Short coverage-guided runs of every fuzz target (native Go fuzzing; the
# committed corpora under testdata/fuzz are regression seeds). One -fuzz
# pattern per invocation — go test only fuzzes a single target at a time.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzUnpack$$' -fuzztime $(FUZZTIME) ./internal/dnswire
	$(GO) test -run '^$$' -fuzz '^FuzzPackUnpackRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/dnswire
	$(GO) test -run '^$$' -fuzz '^FuzzPackMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/dnswire
	$(GO) test -run '^$$' -fuzz '^FuzzWireLenBound$$' -fuzztime $(FUZZTIME) ./internal/dnswire
	$(GO) test -run '^$$' -fuzz '^FuzzMasterFile$$' -fuzztime $(FUZZTIME) ./internal/zone
	$(GO) test -run '^$$' -fuzz '^FuzzParseMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/zone
	$(GO) test -run '^$$' -fuzz '^FuzzZoneMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/zone
	$(GO) test -run '^$$' -fuzz '^FuzzReadTCPMessage$$' -fuzztime $(FUZZTIME) ./internal/udprun
	$(GO) test -run '^$$' -fuzz '^FuzzSpecParse$$' -fuzztime $(FUZZTIME) ./internal/spec
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzRegressParse$$' -fuzztime $(FUZZTIME) ./internal/regress
	$(GO) test -run '^$$' -fuzz '^FuzzResolverUpstream$$' -fuzztime $(FUZZTIME) ./internal/recursive
	$(GO) test -run '^$$' -fuzz '^FuzzCacheMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/cache

# Sharded-engine scale gate: one 100k-probe 4-shard DDoS run (spec H)
# under the race detector with a peak-RSS ceiling. Small cells keep the
# resident set inside CI-runner memory even with the race detector's
# shadow overhead. The ceiling tightened 6144 -> 4096 with the
# timing-wheel engine (DESIGN.md §11): this configuration peaked at
# ~1.9 GiB pre-wheel.
SCALE_PROBES ?= 100000
SCALE_SHARDS ?= 4
SCALE_SHARD_PROBES ?= 2048
SCALE_RSS_MB ?= 4096
scale-smoke:
	SCALE_SMOKE=1 SCALE_PROBES=$(SCALE_PROBES) SCALE_SHARDS=$(SCALE_SHARDS) \
	SCALE_SHARD_PROBES=$(SCALE_SHARD_PROBES) SCALE_RSS_MB=$(SCALE_RSS_MB) \
	$(GO) test -race -run '^TestScaleSmoke$$' -timeout 60m -v .

# End-to-end trace pipeline check: record a small traced DDoS run, then
# validate, analyze, and convert it; then check every traced family's
# bytes against testdata/regress/trace_digests.txt at -shards 1 and 4.
# See scripts/trace_smoke.sh.
trace-smoke:
	./scripts/trace_smoke.sh

# End-to-end CLI gate (the -race suites run under `make race`): a tiny
# staged multi-phase campaign — `-probes 60` overrides the spec's 1500 —,
# a tiny `dikes timeline` run with CSV/JSON export, the paper campaign
# plus scorecard at 200 probes (every run must finish, every report
# invariant hold and every scorecard row be read; the readings are not
# judged), two overrides that must exit 2 without simulating, and the
# 1 MB file size guard.
cli-smoke: size-guard
	$(GO) run ./cmd/dikes -probes 60 campaign examples/specs/staged.json >/dev/null
	$(GO) run ./cmd/dikes -probes 200 check >/dev/null
	tmp=$$(mktemp -d) && \
	    $(GO) run ./cmd/dikes -probes 120 -shards 2 -exp H -csv $$tmp \
	        timeline -bucket 10m >/dev/null && \
	    test -s $$tmp/timeline-expH.csv -a -s $$tmp/timeline-expH.json && \
	    rm -rf $$tmp
	tmp=$$(mktemp -d) && $(GO) build -o $$tmp/dikes ./cmd/dikes && \
	for args in "-probes -5 glue" "timeline -bucket 1ns"; do \
	    said=$$($$tmp/dikes $$args 2>&1 >/dev/null); code=$$?; \
	    case "$$code $$said" in "2 dikes: "*) ;; \
	    *) echo "dikes $$args: exit $$code, want a usage error (2): $$said"; exit 1;; esac; \
	done && rm -rf $$tmp

# Report/timeline regression gate: re-runs the committed baseline
# configurations and diffs the fresh output against testdata/regress/
# with zero tolerance (both documents are deterministic, so any drift in
# any direction fails). Exercises `dikes diff`'s non-zero exit in CI.
# Refresh the baselines with the same commands when behaviour changes
# deliberately (see testdata/regress/README.md).
report-regress:
	tmp=$$(mktemp -d) && \
	    $(GO) run ./cmd/dikes -probes 300 -shards 4 -exp B,H \
	        -report $$tmp/report.json ddos >/dev/null && \
	    $(GO) run ./cmd/dikes diff testdata/regress/ddos_report.json $$tmp/report.json && \
	    $(GO) run ./cmd/dikes -probes 300 -shards 1 -exp H -csv $$tmp \
	        timeline -bucket 10m >/dev/null && \
	    $(GO) run ./cmd/dikes diff testdata/regress/timeline_H.json $$tmp/timeline-expH.json && \
	    rm -rf $$tmp

# Benchmark-behaviour gate: runs each simulator workload of the repo's
# benchmark once and compares the `report digest` it prints with
# testdata/regress/bench_digests.txt (lines of `workload seed digest`). A
# performance change keeps simulated behaviour — every component counter
# and invariant verdict of the run report — or changes that file on
# purpose.
digest-guard:
	@while read -r w seed want; do \
	    got=$$($(GO) run ./benchmark --workload $$w --seed $$seed --seconds 1 --trace 0 | \
	        sed -n 's/^workload .* report digest \([0-9a-f]*\)$$/\1/p'); \
	    if [ "$$got" = "$$want" ]; then echo "digest-guard: $$w seed $$seed ok"; \
	    else echo "digest-guard: $$w seed $$seed: report digest '$$got', want $$want"; exit 1; fi; \
	done < testdata/regress/bench_digests.txt

# Regenerates the committed report tables (paper_run*.txt) from
# examples/specs/ via the campaign runner, verifying -shards 1 and
# -shards 4 agree byte-for-byte first. See scripts/regen_tables.sh.
regen-tables:
	./scripts/regen_tables.sh

# Fails if any tracked or staged file exceeds the 1 MB budget (build
# artifacts and run logs do not belong in the tree), or CHANGES.md,
# DESIGN.md, EXPERIMENTS.md or README.md its own budget.
size-guard:
	./scripts/size_guard.sh
