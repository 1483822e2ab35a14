#!/bin/sh
# One way to count an event, one owner of a cell's observers
# (DESIGN.md §14.1-14.2), kept true by grep:
#
#   - non-test internal/recursive reaches the trace buffer and the
#     cell's timeline only from the event hook in event.go (one tr.Emit,
#     one tr.Force, one timeline.Add), so a new counter, series or trace
#     record is a row of the kinds table, not another emit site;
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
#   - a simulated packet is a message (DESIGN.md §11.2): non-test
#     internal/netsim packs and decodes at one site each (packet.bytes,
#     packet.message), for the readers of bytes and the raw senders;
#     non-test internal/recursive, internal/stub and
#     internal/authoritative call dnswire.Unpack* once each, in their
#     real-socket entry (Resolver.Receive, Client.Receive,
#     Server.handleWireAppend), and internal/experiment and
#     internal/adversary never, so no simulated hop grows a decode;
#   - no pack per send (DESIGN.md §11.2): a sender hands its message
#     over unpacked and the transport packs it if it needs bytes, so
#     non-test internal/recursive, internal/stub, internal/authoritative
#     and internal/adversary call Pack/AppendPack only in
#     Resolver.respond (a UDP reply over its bound, measured), in
#     Server.fit (the same for the authoritative, packed once) and
#     Server.handleWireAppend (the real-socket byte path's repack of a
#     truncated reply), and in Reflector.Send (the request size it
#     counts), so no engine quietly packs every send again;
#   - one timer call (DESIGN.md §11.1): non-test internal/ (outside
#     internal/clock), cmd/ and examples/ name none of AfterFuncArg(,
#     RefScheduler or clock.Real, so every timer goes through
#     Clock.AfterFuncRef or the clock.AfterFunc helper and a recorder
#     wrapping that one method sees them all;
#   - one time-series container (DESIGN.md §14.3): non-test internal/
#     names no RoundSeries and declares no map[int]map[string], and
#     only internal/timeline declares a 2-D int64 grid ([][]int64 or
#     [][N]int64), so every count binned by simulated time is a
#     timeline.Timeline and a second series container cannot come back;
#   - one upstream loop (DESIGN.md §10): non-test internal/recursive
#     calls pickServer at one site (tryNextServer, the retry loop of both
#     modes) and names no fwd field, parameter or variable, so a forwarder
#     stays a fetch whose servers are its forwarders and a second retry
#     loop beside the iterative one cannot come back;
#   - one host table (DESIGN.md §11.2): non-test internal/netsim declares
#     one map[Addr] (Network.slots, the index of the host records) and no
#     map[[2]Addr], so a per-address setting is a field of host (or of
#     its side record) and a per-pair one is keyed by slots, not a new map
#     beside the table;
#   - cell-owned resolver state (DESIGN.md §9-10): non-test
#     internal/cache makes []cached at one site, Arena.node, so no cache
#     grows a private slab beside its cell's arena; non-test
#     internal/recursive declares srtt and harvests as map[uint64]
#     (rid<<32 | the working set's number of the server or zone) and no
#     ridAddr or ridZone key type, so per-resolver tables stay
#     fixed-width;
#   - the resolver validates nothing (DESIGN.md §2, row 18): non-test
#     internal/recursive neither imports repro/internal/dnssec nor names
#     TrustAnchors, so DNSSEC stays the authoritatives' signing and DO=1
#     serving and a per-zone validator does not grow back;
#   - per-entity records at their natural width (DESIGN.md §9-10):
#     non-test internal/stub declares no map (a client's few queries in
#     flight are a list scanned by ID), and cache.Cache declares
#     cfg *Config, so a resolver's cache points at its kind's Config
#     instead of copying it into every resolver.
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
for pat in 'tr\.Emit(' 'tr\.Force(' 'observe(' 'timeline\.Add('; do
    # shellcheck disable=SC2086
    [ "$(count "$pat" $rest)" -eq 0 ] || fail "$pat outside $hook: $(grep -n "$pat" $rest)"
done
for pat in 'tr\.Emit(' 'tr\.Force(' 'timeline\.Add('; do
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

# nondir DIR: DIR's non-test files.
nondir() {
    ls "$1"/*.go | grep -v '_test\.go$'
}

# body FILE FUNC: the lines of FILE's function whose declaration starts
# with "func FUNC" (a sed pattern).
body() {
    sed -n "/^func $2/,/^}/p" "$1"
}

# decodes and packs: dnswire.Unpack* and Pack(/AppendPack( calls in the
# files named, or in stdin.
decodes() {
    count 'dnswire\.Unpack' "$@"
}
packs() {
    count '\.\(Append\)\{0,1\}Pack(' "$@"
}

# shellcheck disable=SC2046
[ "$(decodes $(nondir internal/netsim))" -eq 1 ] && [ "$(body internal/netsim/netsim.go '(p \*packet) message(' | decodes)" -eq 1 ] ||
    fail "want one dnswire.Unpack* call in non-test internal/netsim, in packet.message: $(grep -n 'dnswire\.Unpack' internal/netsim/*.go | grep -v '_test\.go:')"
# shellcheck disable=SC2046
[ "$(packs $(nondir internal/netsim))" -eq 1 ] && [ "$(body internal/netsim/netsim.go '(p \*packet) bytes(' | packs)" -eq 1 ] ||
    fail "want one Pack/AppendPack call in non-test internal/netsim, in packet.bytes: $(grep -n 'Pack(' internal/netsim/*.go | grep -v '_test\.go:')"

for pin in 'internal/recursive/resolver.go:(r \*Resolver) Receive(' 'internal/stub/stub.go:(c \*Client) Receive(' \
    'internal/authoritative/server.go:(s \*Server) handleWireAppend('; do
    f=${pin%%:*} fn=${pin#*:}
    # shellcheck disable=SC2046
    [ "$(decodes $(nondir "$(dirname "$f")"))" -eq 1 ] && [ "$(body "$f" "$fn" | decodes)" -eq 1 ] ||
        fail "want one dnswire.Unpack* call in non-test $(dirname "$f"), in its real-socket entry $fn: $(grep -n 'dnswire\.Unpack' "$(dirname "$f")"/*.go | grep -v '_test\.go:')"
done
for dir in internal/experiment internal/adversary; do
    # shellcheck disable=SC2046
    [ "$(decodes $(nondir "$dir"))" -eq 0 ] ||
        fail "dnswire.Unpack* in non-test $dir (read the packet's message): $(grep -n 'dnswire\.Unpack' "$dir"/*.go | grep -v '_test\.go:')"
done

for pin in 'internal/recursive/serve.go:(r \*Resolver) respond(:1' 'internal/stub/stub.go::0' \
    'internal/authoritative/server.go:(s \*Server) \(fit\|handleWireAppend\)(:2' 'internal/adversary/adversary.go:(r \*Reflector) Send(:1'; do
    f=${pin%%:*} rest=${pin#*:}
    fn=${rest%:*} want=${rest##*:} dir=$(dirname "$f")
    # shellcheck disable=SC2046
    [ "$(packs $(nondir "$dir"))" -eq "$want" ] && { [ -z "$fn" ] || [ "$(body "$f" "$fn" | packs)" -eq "$want" ]; } ||
        fail "want $want Pack/AppendPack call(s) in non-test $dir${fn:+, all in $fn}: $(grep -n 'Pack(' "$dir"/*.go | grep -v '_test\.go:')"
done

timers="$(find internal cmd examples -name '*.go' ! -name '*_test.go' | grep -v '^internal/clock/')"
for pat in 'AfterFuncArg(' 'RefScheduler' 'clock\.Real'; do
    # shellcheck disable=SC2086
    [ "$(count "$pat" $timers)" -eq 0 ] ||
        fail "$pat outside internal/clock (schedule with AfterFuncRef or clock.AfterFunc): $(grep -n "$pat" $timers)"
done

series="$(find internal -name '*.go' ! -name '*_test.go')"
for pat in 'RoundSeries' 'map\[int\]map\[string\]'; do
    # shellcheck disable=SC2086
    [ "$(count "$pat" $series)" -eq 0 ] ||
        fail "$pat in non-test internal/ (bin counts in a timeline.Timeline): $(grep -n "$pat" $series)"
done
grids="$(echo "$series" | grep -v '^internal/timeline/')"
# shellcheck disable=SC2086
[ "$(count '\[\]\[[A-Za-z0-9_.]*\]int64' $grids)" -eq 0 ] ||
    fail "time bins allocated outside internal/timeline (use timeline.New): $(grep -n '\[\]\[[A-Za-z0-9_.]*\]int64' $grids)"

rec="$(nondir internal/recursive)"
# shellcheck disable=SC2086
[ "$(count '\.pickServer(' $rec)" -eq 1 ] && [ "$(body internal/recursive/iterate.go '(t \*task) tryNextServer(' | count '\.pickServer(')" -eq 1 ] ||
    fail "want one pickServer call in non-test internal/recursive, in tryNextServer: $(grep -n 'pickServer(' $rec)"
# shellcheck disable=SC2086
[ "$(count '\<fwd\>' $rec)" -eq 0 ] ||
    fail "fwd in non-test internal/recursive (forwarding is per resolver: Resolver.forwarding): $(grep -nw 'fwd' $rec)"

ns="$(nondir internal/netsim)"
# shellcheck disable=SC2086
[ "$(cat $ns | grep -v '^[[:space:]]*//' | grep 'map\[Addr\]' | grep -vc 'make(' || true)" -eq 1 ] &&
    [ "$(count 'map\[\[2\]Addr\]' $ns)" -eq 0 ] ||
    fail "want one map[Addr] declared in non-test internal/netsim (Network.slots) and no map[[2]Addr]: a per-address setting is a field of host: $(grep -n 'map\[\(\[2\]\)\{0,1\}Addr\]' $ns)"

cachefiles="$(nondir internal/cache)"
# shellcheck disable=SC2086
[ "$(count 'make(\[\]cached' $cachefiles)" -eq 1 ] && [ "$(body internal/cache/cache.go '(a \*Arena) node(' | count 'make(\[\]cached')" -eq 1 ] ||
    fail "want one make([]cached site in non-test internal/cache, in Arena.node: $(grep -n 'make(\[\]cached' $cachefiles)"
for tab in srtt harvests; do
    # shellcheck disable=SC2086
    [ "$(count "^[[:space:]]*$tab[[:space:]]\+map\[uint64\]" $rec)" -eq 1 ] ||
        fail "want $tab declared as map[uint64]... in non-test internal/recursive: $(grep -n "^[[:space:]]*$tab[[:space:]]" $rec)"
done
# shellcheck disable=SC2086
[ "$(count 'type[[:space:]]\+rid\(Addr\|Zone\)\>' $rec)" -eq 0 ] ||
    fail "ridAddr/ridZone key type in non-test internal/recursive (key by rid<<32 | n): $(grep -n 'rid\(Addr\|Zone\)' $rec)"
# shellcheck disable=SC2086
[ "$(count '"repro/internal/dnssec"\|TrustAnchors' $rec)" -eq 0 ] ||
    fail "DNSSEC validation in non-test internal/recursive (the resolver validates nothing): $(grep -n 'repro/internal/dnssec\|TrustAnchors' $rec)"

stub="$(nondir internal/stub)"
# shellcheck disable=SC2086
[ "$(count 'map\[' $stub)" -eq 0 ] ||
    fail "map in non-test internal/stub (queries in flight are a list scanned by ID): $(grep -n 'map\[' $stub)"
[ "$(sed -n '/^type Cache struct/,/^}/p' internal/cache/cache.go | count '^[[:space:]]*cfg[[:space:]]\+\*Config\>')" -eq 1 ] ||
    fail "want cache.Cache to declare cfg *Config (point at the kind's Config, do not copy it): $(sed -n '/^type Cache struct/,/^}/p' internal/cache/cache.go | grep -n 'cfg')"

echo "obs-guard OK" >&2
