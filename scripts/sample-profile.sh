#!/usr/bin/env bash
# A sampling profiler for a box without `perf`: scripts/sample-profile.sh CMD...
#
# Builds a small LD_PRELOAD shim that records the program counter on a 250 Hz
# SIGPROF (setitimer(ITIMER_PROF): CPU time of every thread), runs CMD under
# it, symbolizes the samples with `addr2line -f -i` and prints the top
# functions — by outermost (non-inlined) symbol, and crediting every function
# of the inline chain — and the top source lines. A sample is named only when
# it lies inside a symbol's extent (`nm -S`, or `nm -D -S` for a stripped
# object such as libc); one in code no symbol covers (libc's `_int_malloc`,
# its `memset`/`memcpy` variants) is `<object> (unexported)`, not the nearest
# exported name below it. CMD's stdout goes to stderr; the report alone is on
# stdout. No stacks: a sample names where the CPU was, not who called it.
# Needs `cc`, `nm` and `addr2line`; exits 0 saying so otherwise.
set -euo pipefail
[ $# -gt 0 ] || { echo "usage: $0 CMD [ARG...]" >&2; exit 2; }
for tool in cc nm addr2line; do
    command -v "$tool" >/dev/null || { echo "sample-profile: no \`$tool\` here; nothing profiled"; exit 0; }
done
echo "sample-profile: source lines need debug info — CARGO_PROFILE_RELEASE_DEBUG=1 cargo build --release"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#define MAX_SAMPLES (1L << 20)
static unsigned long pcs[MAX_SAMPLES];
static long taken;
static void on_sigprof(int sig, siginfo_t *info, void *context) {
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
#if defined(__x86_64__)
    if (i < MAX_SAMPLES) pcs[i] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
#else
    if (i < MAX_SAMPLES) pcs[i] = ((ucontext_t *)context)->uc_mcontext.pc;
#endif
}
static void arm(long usec) {
    struct itimerval every = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &every, NULL);
}
__attribute__((constructor)) static void start(void) {
    struct sigaction action = {0};
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    arm(4000);
}
/* One "object 0x<address in that object>" line per sample, one file per process. */
__attribute__((destructor)) static void dump(void) {
    char path[4096];
    arm(0);
    snprintf(path, sizeof path, "%s.%d", getenv("SAMPLE_PROFILE_OUT"), (int)getpid());
    FILE *out = fopen(path, "w");
    Dl_info where;
    for (long i = 0; out && i < taken && i < MAX_SAMPLES; i++)
        if (dladdr((void *)pcs[i], &where) && where.dli_fname)
            fprintf(out, "%s 0x%016lx\n", where.dli_fname, pcs[i] - (unsigned long)where.dli_fbase);
    if (out) fclose(out);
}
EOF
cc -O1 -shared -fPIC -o "$tmp/shim.so" "$tmp/shim.c" -ldl 2>"$tmp/cc.log" || {
    echo "sample-profile: could not build the shim here (Linux x86-64 / aarch64 only):"
    cat "$tmp/cc.log"
    exit 0
}
status=0
SAMPLE_PROFILE_OUT="$tmp/pcs" LD_PRELOAD="$tmp/shim.so" "$@" 1>&2 || status=$?

# "count object address" per distinct sample, then one addr2line per object.
cat "$tmp"/pcs.* 2>/dev/null | sort | uniq -c > "$tmp/counts"
total=$(awk '{n += $1} END {print n + 0}' "$tmp/counts")
[ "$total" -gt 0 ] || { echo "sample-profile: no samples (under 4 ms of CPU?)"; exit "$status"; }
hex='function hex(s,    i, n) {
    n = 0
    for (i = 3; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
}'
for object in $(awk '{print $2}' "$tmp/counts" | sort -u); do
    # Symbol extents ("start 0 end") and samples ("address 1 0x…"), in address
    # order: a sample is inside when some symbol that starts at or below it
    # ends above it. The others are credited to the object alone.
    { nm -S --defined-only "$object" 2>/dev/null; nm -D -S --defined-only "$object" 2>/dev/null; } |
        awk "$hex"' NF == 4 && $3 ~ /^[TtWwi]$/ {printf "%.0f 0 %.0f\n", hex("0x" $1), hex("0x" $1) + hex("0x" $2)}' \
            > "$tmp/extents" || true
    { awk "$hex"' $2 == object {printf "%.0f 1 %s\n", hex($3), $3}' object="$object" "$tmp/counts"
      cat "$tmp/extents"; } | sort -k1,1n -k2,2n |
        awk -v inside="$tmp/inside" -v outside="$tmp/outside" '
            $2 == 0 { if ($3 > end) end = $3; next }
            { print $3 > ($1 < end ? inside : outside) }
        '
    touch "$tmp/inside" "$tmp/outside"
    awk -v object="$object" '
        NR == FNR { if ($2 == object) count[$3] = $1; next }
        {
            name = object; sub(/.*\//, "", name); name = name " (unexported)"
            printf "outer\t%d\t%s\nincl\t%d\t%s\nline\t%d\t??  (%s)\n", count[$1], name, count[$1], name, count[$1], name
        }
    ' "$tmp/counts" "$tmp/outside" >> "$tmp/frames"
    { addr2line -a -f -i -C -e "$object" < "$tmp/inside" 2>/dev/null || true; } |
        awk -v object="$object" -v here="$PWD/" '
            function clean(name) { sub(/::h[0-9a-f]+$/, "", name); return name }
            # One address is done: frames 1..depth run innermost to outermost.
            function flush(    i, name, seen) {
                if (depth == 0) return
                printf "outer\t%d\t%s\n", n, clean(fn[depth])
                printf "line\t%d\t%s  (%s)\n", n, loc[1], clean(fn[1])
                for (i = 1; i <= depth; i++) {
                    name = clean(fn[i])
                    if (!(name in seen)) printf "incl\t%d\t%s\n", n, name
                    seen[name]
                }
                depth = 0
            }
            NR == FNR { if ($2 == object) count[$3] = $1; next }
            /^0x[0-9a-f]+$/ { flush(); n = count[$0]; half = 0; next }
            half == 0 { fn[++depth] = $0; half = 1; next }
            {
                sub(/ \(discriminator [0-9]+\)$/, "")
                loc[depth] = index($0, here) == 1 ? substr($0, length(here) + 1) : $0
                half = 0
            }
            END { flush() }
        ' "$tmp/counts" - >> "$tmp/frames"
    rm -f "$tmp/inside" "$tmp/outside"
done
top() { # $1 = row kind, $2 = heading
    echo
    echo "$2"
    awk -F'\t' -v kind="$1" -v total="$total" '
        $1 == kind { sum[$3] += $2 }
        END { for (k in sum) printf "%6.1f%% %7d  %s\n", 100 * sum[k] / total, sum[k], k }
    ' "$tmp/frames" | sort -k2,2nr | awk 'NR <= 15'
}
echo "sample-profile: $total samples at 250 Hz ($(awk -v n="$total" 'BEGIN {printf "%.2f", n / 250}') s of CPU)"
top outer "top functions, outermost symbol (inlined callees folded in)"
top incl "top functions, inline-inclusive (every function of the inline chain)"
top line "top source lines (innermost frame)"
exit "$status"
