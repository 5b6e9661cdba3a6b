#!/usr/bin/env bash
# Paired timing of two revisions of `tenoc`:
#   scripts/bench-pair.sh REV_A REV_B PAIRS -- <tenoc args>
#
# Builds each revision once (`cargo build --release --offline`) in its own
# git worktree and target directory under ${TMPDIR:-/tmp}, once in all when
# both name the same commit (scripts/rev-build.sh). Each pair then runs the
# two binaries side by side with the same args, alternating which starts
# first; every `@CACHE@` in the args becomes a fresh directory per run. Each
# child's user+sys CPU seconds and wall seconds come from bash's `time`.
# Prints one line per pair, then the median B/A CPU ratio with its
# quartiles, the median B/A wall ratio and how many pairs B won on CPU.
# Exits non-zero if a build or a run fails.
# Example: scripts/bench-pair.sh HEAD~1 HEAD 10 -- tune --k 6 --jobs 1 --cache @CACHE@
set -euo pipefail
usage() { echo "usage: $0 REV_A REV_B PAIRS -- <tenoc args>" >&2; exit 2; }
[ $# -ge 4 ] && [ "$4" = "--" ] || usage
rev_a=$1 rev_b=$2 pairs=$3
shift 4
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
args=("$@")

. "$(dirname "$0")/rev-build.sh"
sha_a=$(rev_sha "$rev_a")
sha_b=$(rev_sha "$rev_b")
bin_a=$(rev_build "$sha_a")
bin_b=$(rev_build "$sha_b")

# Runs binary $1 as run $2: stdout discarded, stderr to $2.err, and
# "<user+sys> <wall>" seconds to $2.time, or "FAILED <status>".
run() {
    local dir=$work/$2.cache status=0
    mkdir -p "$dir"
    local TIMEFORMAT='%U %S %R'
    { time "$1" "${args[@]//@CACHE@/$dir}" >/dev/null 2>"$work/$2.err" || status=$?; } \
        2>"$work/$2.times"
    if [ "$status" -ne 0 ]; then
        echo "FAILED $status" >"$work/$2.time"
    else
        awk '{ printf "%.3f %.3f\n", $1 + $2, $3 }' "$work/$2.times" >"$work/$2.time"
    fi
    rm -rf "$dir"
}

# Prints "<q1> <median> <q3>" of the numbers on stdin, interpolating
# linearly between order statistics.
quartiles() {
    sort -g | awk '{ v[NR - 1] = $1 }
        function q(f,    h, lo) {
            h = (NR - 1) * f; lo = int(h)
            return lo + 1 < NR ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[lo]
        }
        END { printf "%.3f %.3f %.3f\n", q(0.25), q(0.5), q(0.75) }'
}

cpu_ratios=() wall_ratios=() won=0
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then
        first=A
        run "$bin_a" "$p-A" &
        run "$bin_b" "$p-B" &
    else
        first=B
        run "$bin_b" "$p-B" &
        run "$bin_a" "$p-A" &
    fi
    wait
    for side in A B; do
        if grep -q FAILED "$work/$p-$side.time"; then
            echo "bench-pair: pair $p: run $side $(cat "$work/$p-$side.time"):" >&2
            cat "$work/$p-$side.err" >&2
            exit 1
        fi
    done
    read -r cpu_a wall_a <"$work/$p-A.time"
    read -r cpu_b wall_b <"$work/$p-B.time"
    read -r cpu_ratio wall_ratio b_won < <(awk -v ca="$cpu_a" -v wa="$wall_a" \
        -v cb="$cpu_b" -v wb="$wall_b" 'BEGIN {
            if (ca <= 0) ca = 0.001; if (wa <= 0) wa = 0.001
            printf "%.4f %.4f %d\n", cb / ca, wb / wa, (cb < ca) }')
    cpu_ratios+=("$cpu_ratio") wall_ratios+=("$wall_ratio")
    won=$((won + b_won))
    printf 'pair %d (%s first): A cpu %s s wall %s s | B cpu %s s wall %s s | B/A cpu %s wall %s\n' \
        "$p" "$first" "$cpu_a" "$wall_a" "$cpu_b" "$wall_b" "$cpu_ratio" "$wall_ratio"
done
read -r cpu_q1 cpu_median cpu_q3 < <(printf '%s\n' "${cpu_ratios[@]}" | quartiles)
read -r _ wall_median _ < <(printf '%s\n' "${wall_ratios[@]}" | quartiles)
echo "summary: B/A cpu median $cpu_median (quartiles $cpu_q1-$cpu_q3)," \
    "wall median $wall_median; B won $won/$pairs pairs"
