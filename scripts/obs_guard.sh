#!/bin/sh
# One way to count an event, one owner of a cell's observers
# (DESIGN.md §14.1-14.2), kept true by grep:
#
#   - non-test internal/recursive reaches the trace buffer and the
#     timeline collector only from the event hook in event.go (one
#     tr.Emit, one tr.Force, one ObserveAt), so a new counter, series or
#     trace record is a row of the kinds table, not another emit site;
#   - non-test internal/experiment sets the observers on the cell's
#     network once (one SetTrace and one SetTimeline call, in
#     NewTestbed); actors inherit them from the network they attach to;
#   - one fan-out per level (DESIGN.md §12.3): non-test internal/ and cmd/
#     call parallel.ForEachCtx once (RunCampaign, the runs of a campaign)
#     and parallel.MapCtx once (runCells, the cells of a run), so no
#     scenario grows a private runner nested inside the campaign's;
#   - one seeded-stream constructor (DESIGN.md §12.1): non-test internal/,
#     cmd/ and examples/ build a math/rand stream only through
#     lazyrand.New, so no resolver pays math/rand's 4.9 KB seeded state
#     before it draws past 273;
#   - one fold per tally (DESIGN.md §12.1): non-test internal/experiment
#     touches Testbed.AuthLog only in testbed.go (the tap, its one writer)
#     and perprobe.go (Table 7, its one reader, in the exp-I cell), and
#     sets KeepAuthLog at one site, that drill cell's, so a new auth-side
#     tally folds in the tap instead of scanning a log its cells keep;
#   - one working set per cell (DESIGN.md §10): non-test
#     internal/recursive and internal/stub declare dnswire.Message fields
#     only inside their workingSet type, the scratch each engine borrows
#     from the network it attaches to, so a resolver or a stub client
#     cannot grow per-instance scratch messages again;
#   - one decode per engine (DESIGN.md §11.2): a simulated packet carries
#     the message its sender packed, so non-test internal/recursive,
#     internal/stub and internal/authoritative each call dnswire.Unpack*
#     once, in the fallback for bytes that came alone (resolver.go,
#     stub.go, server.go), and non-test internal/experiment twice, in its
#     two taps' fallbacks (testbed.go, adversary.go), so no simulated hop
#     grows a second decode;
#   - no pack per UDP send (DESIGN.md §11.2): a sender hands its message
#     over unpacked and the transport packs it if it needs bytes, so
#     non-test internal/recursive, internal/stub and internal/authoritative
#     call Pack/AppendPack only where bytes are read: the TCP queries
#     (resolver.go, stub.go), the resolver's TCP or over-the-bound response
#     (serve.go), and the authoritative's pack (server.go: the byte paths
#     and the over-the-bound reply, packed then, if truncated, repacked),
#     so no engine quietly packs every UDP send again.
set -eu

cd "$(dirname "$0")/.."

fail() {
    echo "obs-guard: $1" >&2
    exit 1
}

# count PATTERN FILE...: matching lines over the files, comments excluded.
count() {
    pat="$1"
    shift
    cat "$@" | grep -v '^[[:space:]]*//' | grep -c "$pat" || true
}

hook=internal/recursive/event.go
rest="$(ls internal/recursive/*.go | grep -v -e '_test\.go$' -e "^$hook\$")"
for pat in 'tr\.Emit(' 'tr\.Force(' 'observe(' 'ObserveAt('; do
    # shellcheck disable=SC2086
    [ "$(count "$pat" $rest)" -eq 0 ] || fail "$pat outside $hook: $(grep -n "$pat" $rest)"
done
for pat in 'tr\.Emit(' 'tr\.Force(' 'ObserveAt('; do
    [ "$(count "$pat" "$hook")" -le 1 ] || fail "more than one $pat in $hook: the hook is the only emit site"
done

exp="$(ls internal/experiment/*.go | grep -v '_test\.go$')"
for pat in 'SetTrace(' 'SetTimeline('; do
    # shellcheck disable=SC2086
    [ "$(count "$pat" $exp)" -le 1 ] || fail "more than one $pat call in internal/experiment: $(grep -n "$pat" $exp)"
done
# shellcheck disable=SC2086
[ "$(count 'AttachTimeline(' $exp)" -eq 0 ] || fail "AttachTimeline is back in internal/experiment"

readers="$(echo "$exp" | grep -v -e '^internal/experiment/testbed\.go$' -e '^internal/experiment/perprobe\.go$')"
# shellcheck disable=SC2086
[ "$(count '\.AuthLog' $readers)" -eq 0 ] ||
    fail "AuthLog read outside perprobe.go (fold the tally in the tap): $(grep -n '\.AuthLog' $readers)"
# shellcheck disable=SC2086
[ "$(count 'KeepAuthLog[[:space:]]*\(:\|=[^=]\)' $exp)" -eq 1 ] ||
    fail "want KeepAuthLog set at exactly one site, the drill cell's: $(grep -n 'KeepAuthLog' $exp)"

all="$(find internal cmd -name '*.go' ! -name '*_test.go')"
for pat in 'parallel\.ForEachCtx(' 'parallel\.MapCtx('; do
    # shellcheck disable=SC2086
    [ "$(count "$pat" $all)" -eq 1 ] || fail "want exactly one $pat call in internal/ and cmd/: $(grep -n "$pat" $all)"
done

seeded="$(find internal cmd examples -name '*.go' ! -name '*_test.go' | grep -v '^internal/lazyrand/')"
# shellcheck disable=SC2086
[ "$(count 'rand\.NewSource(' $seeded)" -eq 0 ] ||
    fail "rand.NewSource outside internal/lazyrand (use lazyrand.New): $(grep -n 'rand\.NewSource(' $seeded)"

# msgfields FILE...: dnswire.Message fields (value, array or embedded)
# declared outside a workingSet struct, one line each.
msgfields() {
    for f in "$@"; do
        sed '/^type workingSet struct {/,/^}/d' "$f" |
            grep -E '^[[:space:]]+([A-Za-z_][A-Za-z0-9_]*([[:space:]]*,[[:space:]]*[A-Za-z_][A-Za-z0-9_]*)*[[:space:]]+)?(\[[^]]*\])*dnswire\.Message([[:space:]]|$)' |
            sed "s|^|$f: |" || true
    done
}
engines="$(ls internal/recursive/*.go internal/stub/*.go | grep -v '_test\.go$')"
# shellcheck disable=SC2086
stray="$(msgfields $engines)"
[ -z "$stray" ] || fail "dnswire.Message field outside a workingSet (borrow the network's working set):
$stray"

# decodes DIR: dnswire.Unpack* calls in DIR's non-test files.
decodes() {
    # shellcheck disable=SC2046
    count 'dnswire\.Unpack' $(ls "$1"/*.go | grep -v '_test\.go$')
}
for site in internal/recursive/resolver.go internal/stub/stub.go internal/authoritative/server.go \
    internal/experiment/testbed.go internal/experiment/adversary.go; do
    [ "$(count 'dnswire\.Unpack' "$site")" -eq 1 ] ||
        fail "want one dnswire.Unpack* call in $site, the fallback for bytes without their message: $(grep -n 'dnswire\.Unpack' "$site")"
done
for pin in internal/recursive:1 internal/stub:1 internal/authoritative:1 internal/experiment:2; do
    dir=${pin%:*} want=${pin#*:}
    [ "$(decodes "$dir")" -eq "$want" ] ||
        fail "want $want dnswire.Unpack* call(s) in non-test $dir (read the packet's message): $(grep -n 'dnswire\.Unpack' "$dir"/*.go | grep -v '_test\.go:')"
done

# packs FILE...: Pack( and AppendPack( calls in the files.
packs() {
    count '\.\(Append\)\{0,1\}Pack(' "$@"
}
for pin in internal/recursive/resolver.go:1 internal/recursive/serve.go:1 internal/stub/stub.go:1 \
    internal/authoritative/server.go:2; do
    f=${pin%:*} want=${pin#*:}
    [ "$(packs "$f")" -eq "$want" ] ||
        fail "want $want Pack/AppendPack call(s) in $f, on its TCP or over-the-bound path: $(grep -n 'Pack(' "$f")"
done
rest="$(ls internal/recursive/*.go internal/stub/*.go internal/authoritative/*.go | grep -v -e '_test\.go$' \
    -e '^internal/recursive/resolver\.go$' -e '^internal/recursive/serve\.go$' \
    -e '^internal/stub/stub\.go$' -e '^internal/authoritative/server\.go$')"
# shellcheck disable=SC2086
[ "$(packs $rest)" -eq 0 ] ||
    fail "Pack/AppendPack outside the pinned sites (hand the message to SendMsg): $(grep -n 'Pack(' $rest)"

echo "obs-guard OK" >&2
