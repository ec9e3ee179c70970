#!/bin/sh
# audit: print the code ledger (AUDIT.md) to stdout. `make audit` is the
# entry point; run from the repo root.
#
# The "before" totals are counted at HEAD, "after" is the working tree;
# once committed, `git diff AUDIT.md` is the before/after of a later PR.
# Per package of the root module (bench/ is its own module and is not
# listed):
#
#   non-test LoC   code lines of *.go files that are not *_test.go
#   test LoC       code lines of *_test.go files
#   exported       exported top-level names: funcs, methods, types, and
#                  names declared in const/var declarations (struct
#                  fields and interface methods are not counted)
#   test-only      exported top-level names (same rule) that occur in no
#                  non-test .go file of the root module or of bench/,
#                  comment-only lines ignored, other than at their own
#                  declaration: candidates for the next deletion pass;
#                  the names themselves follow the table, one line per
#                  package
#   coverage       statement coverage from `go test -cover`, after only
#
# test-only is a ledger, not a gate: it matches words, not symbols. A
# name spelled like one that is used anywhere (Len, Less, Alloc, String)
# counts as used, so the column under-reports; a method reached only
# through an interface it satisfies, and a type named only in its own
# methods' receivers, are judged by where the word is spelled, not by
# who calls it. Read the names behind a number before acting on it.
#
# A code line is one that is neither blank nor comment-only (// lines and
# the inside of /* */ blocks): rewording a comment does not move the
# ledger, deleting a statement does.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

# exported FILE... — count exported top-level names.
exported() {
    [ $# -gt 0 ] || { echo 0; return; }
    awk '
        /^(const|var|type) \($/ { block = 1; next }
        block && /^\)/          { block = 0; next }
        block && /^\t[A-Z][A-Za-z0-9_]*/ { n++; next }
        /^func [A-Z]/ || /^func \([^)]*\) [A-Z]/ { n++; next }
        /^(type|const|var) [A-Z]/ { n++ }
        END { print n + 0 }
    ' "$@"
}

# lines FILE... — count code lines.
lines() {
    [ $# -gt 0 ] || { echo 0; return; }
    awk '
        block            { if (index($0, "*/")) block = 0; next }
        /^[ \t]*$/       { next }
        /^[ \t]*\/\//    { next }
        /^[ \t]*\/\*/    { if (!index($0, "*/")) block = 1; next }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

# testonly — run in a tree root: one "dir name" row per test-only name,
# sorted. Every non-test file, bench/ included, is read once: a
# declaration line gives up the name it declares (bench/'s own
# declarations are not counted), then every capitalised word left on a
# code line marks that spelling as used.
testonly() {
    find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './.*' |
        sort | xargs awk '
        FNR == 1         { block = 0; comment = 0; dir = FILENAME; sub(/\/[^\/]*$/, "", dir) }
        comment          { if (index($0, "*/")) comment = 0; next }
        /^[ \t]*$/       { next }
        /^[ \t]*\/\//    { next }
        /^[ \t]*\/\*/    { if (!index($0, "*/")) comment = 1; next }
        {
            line = $0
            sub(/\/\/.*/, "", line)
            if (line ~ /^(const|var|type) \($/) { block = 1; next }
            if (block && line ~ /^\)/) { block = 0; next }
            pre = -1
            if (block) { if (line ~ /^\t[A-Z]/) pre = 1 }
            else if (match(line, /^func \([^)]*\) /) && substr(line, RLENGTH + 1, 1) ~ /[A-Z]/) pre = RLENGTH
            else if (match(line, /^(func|type|const|var) /) && substr(line, RLENGTH + 1, 1) ~ /[A-Z]/) pre = RLENGTH
            if (pre >= 0) {
                match(substr(line, pre + 1), /^[A-Za-z0-9_]+/)
                if (dir !~ /^\.\/bench(\/|$)/) decl[dir SUBSEP substr(line, pre + 1, RLENGTH)] = 1
                line = substr(line, 1, pre) " " substr(line, pre + 1 + RLENGTH)
            }
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                if (substr(line, RSTART, 1) ~ /[A-Z]/) used[substr(line, RSTART, RLENGTH)] = 1
                line = substr(line, RSTART + RLENGTH)
            }
        }
        END {
            for (k in decl) {
                split(k, p, SUBSEP)
                if (!(p[2] in used)) print p[1], p[2]
            }
        }' | sort
}

# ledger ROOT — one "dir non-test-LoC test-LoC exported test-only" row per
# directory holding Go files, skipping bench/, testdata/ and dot
# directories. Leaves the tree's test-only names in $TMP/testonly.
ledger() {
    (
        cd "$1"
        testonly > "$TMP/testonly"
        find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*' -not -path './.*' |
            sed 's|/[^/]*$||' | sort -u |
            while read -r dir; do
                src=$(find "$dir" -maxdepth 1 -name '*.go' -not -name '*_test.go' | sort)
                tst=$(find "$dir" -maxdepth 1 -name '*_test.go' | sort)
                only=$(awk -v d="$dir" '$1 == d { n++ } END { print n + 0 }' "$TMP/testonly")
                # shellcheck disable=SC2086
                echo "$dir $(lines $src) $(lines $tst) $(exported $src) $only"
            done
    )
}

totals() {
    awk '{ s += $2; t += $3; e += $4; o += $5 } END { print s + 0, t + 0, e + 0, o + 0 }' "$1"
}

mkdir "$TMP/base"
git archive HEAD | tar -x -C "$TMP/base"
ledger "$TMP/base" > "$TMP/before"
ledger . > "$TMP/after"

# Coverage per package, keyed by directory.
MOD=$($GO list -m)
$GO test -cover ./... 2>&1 |
    sed -n "s|^ok[[:space:]]*$MOD\\(/[^[:space:]]*\\)\\{0,1\\}[[:space:]].*coverage: \\([0-9.]*%\\).*|.\\1 \\2|p" \
        > "$TMP/cover"

set -- $(totals "$TMP/before")
bs=$1 bt=$2 be=$3 bo=$4
set -- $(totals "$TMP/after")
as=$1 at=$2 ae=$3 ao=$4

cat <<EOF
# AUDIT — per-package code ledger

Generated by \`make audit\` (\`scripts/audit.sh\`, which documents how each
column is counted). Do not edit by hand. LoC are code lines: blank and
comment-only lines are not counted.

## Totals

| | non-test LoC | test LoC | exported symbols | test-only |
|---|---:|---:|---:|---:|
| before ($(git rev-parse --short HEAD)) | $bs | $bt | $be | $bo |
| after (working tree) | $as | $at | $ae | $ao |
| change | $((as - bs)) | $((at - bt)) | $((ae - be)) | $((ao - bo)) |

## Packages

| package | non-test LoC | test LoC | exported symbols | test-only | coverage |
|---|---:|---:|---:|---:|---:|
EOF
while read -r dir s t e o; do
    cov=$(awk -v d="$dir" '$1 == d { print $2 }' "$TMP/cover")
    echo "| \`$dir\` | $s | $t | $e | $o | ${cov:--} |"
done < "$TMP/after"
cat <<EOF

## Test-only names

The names behind the test-only column, one line per package.

EOF
awk '
    $1 != dir { if (line != "") print line; dir = $1; line = "- `" dir "`: " $2; next }
    { line = line ", " $2 }
    END { if (line != "") print line }
' "$TMP/testonly"
