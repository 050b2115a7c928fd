#!/usr/bin/env bash
# Non-test lines of code per crate, as a Markdown table (largest first).
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# attribute line; a crate's are the sum over `crates/<name>/src/**/*.rs`.
# ROADMAP tracks this next to the bench medians: a PR that deletes code
# while the gates hold should show here. The CI `check` job appends the
# table to its step summary.
#
#   bench/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }'
}

total=0
rows=""
for src in crates/*/src; do
    crate=${src#crates/}
    crate=${crate%/src}
    n=$(count "$src")
    total=$((total + n))
    rows+="$n $crate"$'\n'
done

echo "| crate | non-test lines |"
echo "|---|---:|"
printf '%s' "$rows" | sort -rn | while read -r n crate; do
    echo "| $crate | $n |"
done
echo "| **total** | **$total** |"
