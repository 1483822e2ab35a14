#!/bin/sh
# No product code without a product user:
#
#   - the facade re-exports what cmd/, examples/ and the root tests use
#     and nothing else: every exported name declared in dikes.go must
#     appear as dikes.<Name> in some other .go file. A name that fails has
#     lost its last user — delete it from dikes.go rather than keep it
#     "for the API";
#   - every non-test package under internal/ is imported by some non-test
#     package of the module. One that only tests import is a second world
#     beside the one the runs use — move its checks onto that world and
#     delete it. A test-helper package X/Xtest, named after the package X
#     it helps test (clock/clocktest), is exempt.
set -eu

cd "$(dirname "$0")/.."

names="$(sed -nE \
    -e 's/^(type|var|const|func) ([A-Z][A-Za-z0-9_]*).*/\2/p' \
    -e 's/^	([A-Z][A-Za-z0-9_]*) *=.*/\1/p' dikes.go)"
[ -n "$names" ] || { echo "facade-guard: found no exported names in dikes.go" >&2; exit 1; }

unused=""
for name in $names; do
    grep -rqw --include='*.go' --exclude=dikes.go "dikes\.$name" . || unused="$unused $name"
done
if [ -n "$unused" ]; then
    echo "facade-guard: exported by dikes.go, used nowhere else:$unused" >&2
    exit 1
fi

imported="$(go list -f '{{join .Imports "\n"}}' ./... | sort -u)"
orphans=""
for pkg in $(go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/...); do
    parent="${pkg%/*}"
    [ "${pkg##*/}" = "${parent##*/}test" ] && continue # X/Xtest helps test X
    echo "$imported" | grep -qx "$pkg" || orphans="$orphans $pkg"
done
if [ -n "$orphans" ]; then
    echo "facade-guard: internal packages no non-test package imports:$orphans" >&2
    exit 1
fi
echo "facade-guard OK" >&2
