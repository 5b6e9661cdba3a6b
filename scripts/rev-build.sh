# Sourced by scripts/bench-pair.sh and scripts/same-output.sh: the release
# `tenoc` binary of a git revision, built in its own git worktree and
# target directory under one scratch directory, `$work`, in
# ${TMPDIR:-/tmp}. The caller defines `usage` first. Sourcing makes
# `$work` and removes it, worktrees included, when the script exits.
#
#   sha=$(rev_sha REV)      the commit REV names, or `usage`
#   bin=$(rev_build "$sha") the binary, built on first use (once per
#                           commit, however many revisions name it)

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/$(basename "$0" .sh).XXXXXX")
cleanup() {
    for tree in "$work"/src-*; do
        [ -d "$tree" ] && git -C "$repo" worktree remove --force "$tree"
    done
    rm -rf "$work"
}
trap cleanup EXIT

rev_sha() {
    git -C "$repo" rev-parse --verify --quiet "$1^{commit}" || usage
}

rev_build() {
    local src=$work/src-$1 target=$work/target-$1
    if [ ! -d "$src" ]; then
        git -C "$repo" worktree add --quiet --detach "$src" "$1" >&2
        echo "$(basename "$0" .sh): building ${1:0:12}" >&2
        CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
            --manifest-path "$src/Cargo.toml" --bin tenoc >&2
    fi
    echo "$target/release/tenoc"
}
