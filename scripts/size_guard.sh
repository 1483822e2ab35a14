#!/bin/sh
# size_guard.sh — fail if any tracked (or staged) file exceeds the size
# budget. Guards against committing build artifacts and run logs (a
# repro.test binary and a rec2.log once slipped in); report tables,
# snapshots, and fuzz corpora are all far below the limit. CHANGES.md has
# its own budget, so the change log stays a log: an entry is at most four
# lines of about 150 characters, pointing at its bench file and tests,
# not a second DESIGN (FOUND:/MENDED: lines are one line each and do not
# count against their entry). DESIGN.md's,
# EXPERIMENTS.md's and README.md's budgets are their sizes when each
# budget came in, so they can only shrink: a paragraph that changes
# replaces its text rather than growing it.
set -eu

LIMIT_BYTES="${SIZE_GUARD_LIMIT:-1048576}" # 1 MB
CHANGES_LIMIT_BYTES=34000
DESIGN_LIMIT_BYTES=86071
EXPERIMENTS_LIMIT_BYTES=24888
README_LIMIT_BYTES=25169

fail=0
# Tracked files plus anything staged but not yet committed.
for f in $(git ls-files; git diff --cached --name-only --diff-filter=A); do
    [ -f "$f" ] || continue
    size=$(wc -c <"$f")
    limit=$LIMIT_BYTES
    [ "$f" = CHANGES.md ] && limit=$CHANGES_LIMIT_BYTES
    [ "$f" = DESIGN.md ] && limit=$DESIGN_LIMIT_BYTES
    [ "$f" = EXPERIMENTS.md ] && limit=$EXPERIMENTS_LIMIT_BYTES
    [ "$f" = README.md ] && limit=$README_LIMIT_BYTES
    if [ "$size" -gt "$limit" ]; then
        echo "size_guard: $f is $size bytes (limit $limit)" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "size_guard: FAILED — files above the size budget" >&2
    exit 1
fi
echo "size_guard: OK (limit $LIMIT_BYTES bytes, CHANGES.md $CHANGES_LIMIT_BYTES, DESIGN.md $DESIGN_LIMIT_BYTES, EXPERIMENTS.md $EXPERIMENTS_LIMIT_BYTES, README.md $README_LIMIT_BYTES)"
