#!/usr/bin/env bash
# Non-test lines of Rust, by one rule: every `.rs` file under crates/*/src,
# src/ and shims/*/src, each counted up to (not including) its first line
# that starts with `#[cfg(test)]`. Prints one row per source directory, then
# a total per tree and the sum of the three trees.
set -euo pipefail
cd "$(dirname "$0")/.."
lines() { # $@ = directories; prints their non-test line count
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    '
}
grand=0
for tree in 'crates/*/src' src 'shims/*/src'; do
    total=0
    for dir in $tree; do
        n=$(lines "$dir")
        [ "$dir" = "$tree" ] || printf '%-28s %6d\n' "$dir" "$n"
        total=$((total + n))
    done
    printf '%-28s %6d\n' "$tree" "$total"
    grand=$((grand + total))
done
printf '%-28s %6d\n' total "$grand"
