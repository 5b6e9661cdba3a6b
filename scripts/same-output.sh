#!/usr/bin/env bash
# Checks that two revisions of `tenoc` print the same stdout:
#   scripts/same-output.sh REV_A REV_B -- <tenoc args>
#
# Builds each revision as scripts/bench-pair.sh does (scripts/rev-build.sh),
# runs the two binaries one after the other with the same args, and `cmp`s
# their stdout. Exits 1 on a difference, and non-zero if a build or a run
# fails. Example, for a change that must not move the audit:
#   scripts/same-output.sh HEAD~1 HEAD -- audit --json --k 6
set -euo pipefail
usage() { echo "usage: $0 REV_A REV_B -- <tenoc args>" >&2; exit 2; }
[ $# -ge 3 ] && [ "$3" = "--" ] || usage
rev_a=$1 rev_b=$2
shift 3

. "$(dirname "$0")/rev-build.sh"
sha_a=$(rev_sha "$rev_a")
sha_b=$(rev_sha "$rev_b")
bin_a=$(rev_build "$sha_a")
bin_b=$(rev_build "$sha_b")
"$bin_a" "$@" >"$work/a.out"
"$bin_b" "$@" >"$work/b.out"
if ! cmp "$work/a.out" "$work/b.out"; then
    echo "same-output: tenoc $* differs between $rev_a and $rev_b" >&2
    exit 1
fi
echo "same-output: tenoc $*: $(wc -c <"$work/a.out") identical bytes at $rev_a and $rev_b"
