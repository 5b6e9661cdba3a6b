#!/usr/bin/env bash
# Public-surface census: a `pub` name in crates/<c>/src that nothing outside
# crates/<c>/src names is hidden from rustc's dead_code lint for no reason.
# Every pub fn/const/static must be named somewhere else (exit 1 otherwise);
# types are counted and listed only, because a type reachable from a public
# signature legitimately stays `pub` without being named elsewhere.
set -euo pipefail
cd "$(dirname "$0")/.."
census() { # $1 = item-keyword regex; prints "<crate> <name>" per unreferenced name
    local dir crate name outside
    for dir in crates/*/src; do
        crate=${dir#crates/} crate=${crate%/src}
        mapfile -t outside < <(ls -d crates/*/* src tests examples benchmark/src benchmark/README.md | grep -vx "$dir")
        { grep -rhoE "^\s*pub ($1) \w+" "$dir" || true; } | awk '{print $NF}' | sort -u | while read -r name; do
            grep -rqw --include='*.rs' --include='*.md' -e "$name" "${outside[@]}" || echo "$crate $name"
        done
    done
}
report() { # $1 = label, stdin = census lines; prints per-crate counts with names, then the total
    awk -v label="$1" 'NF {n[$1]++; names[$1] = names[$1] " " $2; total++}
        END {for (c in n) printf "%-9s %-10s %3d:%s\n", label, c, n[c], names[c];
             printf "%-9s %-10s %3d\n", label, "TOTAL", total}' | sort
}
census 'struct|enum|trait|type' | report types
fns=$(census '(const )?(fn|const|static)')
report fn/const <<<"$fns"
[ -z "$fns" ] || { echo "pub-census: pub fn/const names unreferenced outside their crate's src/" >&2; exit 1; }
