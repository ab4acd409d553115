#!/usr/bin/env bash
# Non-test line count of the first-party sources: the non-blank lines of
# crates/*/src/**/*.rs and src/**/*.rs, stopping in each file at the first
# line that is exactly `#[cfg(test)]` (unit tests sit below that marker).
# Tests under tests/ and benches/, vendored crates and perfbench/ are not
# counted.
#
# Usage:
#   scripts/loc.sh            # count the working tree
#   scripts/loc.sh REV        # count REV and the working tree, print the delta
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the count for the source tree rooted at $1. xargs may split the
# file list over several awk runs, so their partial counts are summed.
count() {
    find "$1"/crates/*/src "$1"/src -name '*.rs' -print0 |
        xargs -0 awk '
            $0 == "#[cfg(test)]" { nextfile }
            NF { n++ }
            END { print n + 0 }
        ' |
        awk '{ total += $1 } END { print total + 0 }'
}

if [ $# -eq 0 ]; then
    count .
    exit 0
fi

rev=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" crates src | tar -x -C "$tmp"
base=$(count "$tmp")
head=$(count .)
echo "$rev: $base"
echo "working tree: $head"
echo "delta: $((head - base))"
