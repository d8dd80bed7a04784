#!/usr/bin/env bash
# The code figures ROADMAP.md quotes, by one method.
#
#   scripts/counts.sh [TESTS_OUT]
#
# Prints, per crate under crates/:
#
#   lines   non-test lines: each src/*.rs file's lines before its first
#           `#[cfg(test)]`;
#   pub     `pub` items: lines of src/*.rs opening with `pub fn|struct|
#           enum|mod|trait|const|type|static`;
#   panics  release-build panic sites in the non-test lines that are not
#           comments: every `panic!`, `.expect(`, `.unwrap()`,
#           `unreachable!`, `assert!` and `assert_eq!` (a `debug_assert`
#           is not one);
#   pdocs   `/// # Panics` doc sections in the non-test lines;
#
# and a total row. The panics and pdocs totals count product crates
# only, so they leave out rda_baseline, the test oracle.
#
# With TESTS_OUT it also runs `cargo test -- --list` over the default
# members and writes the tier-1 test names there, sorted, one a line,
# each prefixed by its target as the suite prints it:
# `tests/window.rs::name`, `src/lib.rs::module::tests::name`, and
# `doc::<file> - <item>` for a doc test. The tests a change removed are
# then `comm -23 before.txt after.txt`.
#
# Run from anywhere; it counts the checkout holding this script.
set -euo pipefail

cd "$(dirname "$0")/.."

printf '%-10s %7s %5s %7s %6s\n' crate lines pub panics pdocs
for dir in crates/*/; do
    awk -v crate="$(basename "$dir")" '
        FNR == 1 { live = 1 }
        /^[[:space:]]*pub (fn|struct|enum|mod|trait|const|type|static) / { pubs++ }
        /#\[cfg\(test\)\]/ { live = 0 }
        !live { next }
        { lines++ }
        /^[[:space:]]*\/\/\/ # Panics[[:space:]]*$/ { pdocs++ }
        !/^[[:space:]]*\/\// {
            sub(/\/\/.*/, "")
            panics += gsub(/panic!|\.expect\(|\.unwrap\(\)|unreachable!/, "")
            panics += gsub(/(^|[^_[:alnum:]])assert(_eq)?!/, "")
        }
        END { printf "%-10s %7d %5d %7d %6d\n", crate, lines, pubs, panics, pdocs }
    ' "$dir"src/*.rs
done | awk '
    { print; lines += $2; pubs += $3 }
    $1 != "baseline" { panics += $4; pdocs += $5 }
    END { printf "%-10s %7d %5d %7d %6d\n", "total", lines, pubs, panics, pdocs }'

if [[ $# -ge 1 ]]; then
    out=$1
    # cargo names each target on stderr just before its binary lists
    # its tests on stdout; one merged stream keeps them in order.
    cargo test -- --list 2>&1 | awk '
        /^ *Running / { target = $2 == "unittests" ? $3 : $2; next }
        /^ *Doc-tests / { target = "doc"; next }
        /: test$/ {
            name = $0
            sub(/: test$/, "", name)
            sub(/ \(line [0-9]+\)/, "", name)
            print target "::" name
        }' | sort -u >"$out"
    echo "$(wc -l <"$out") tests listed in $out"
fi
