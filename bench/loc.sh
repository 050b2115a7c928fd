#!/usr/bin/env bash
# Non-test lines of code per crate, as a Markdown table (largest first).
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# attribute line; a crate's are the sum over `crates/<name>/src/**/*.rs`,
# minus every file whose `mod` line in the crate's `lib.rs` sits under a bare
# `#[cfg(test)]` (a whole-file test module). Modules `lib.rs` declares under
# `#[cfg(feature = …)]` / `#[cfg(any(test, feature = …))]` are tooling that
# plain builds do not compile (model checker, fault plan, race detector,
# chaos driver): they count, and a second row under the crate says how much
# of its number they are.
# ROADMAP tracks this next to the bench medians: a PR that deletes code
# while the gates hold should show here. The CI `check` job appends the
# table to its step summary.
#
#   bench/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        { n++ }
        END { print n + 0 }' "$1"
}

# The cfg-gated modules of a lib.rs, one "<test|tooling> <module>" per line.
gated_modules() {
    awk '
        /^#\[cfg\(test\)\]/ { class = "test"; next }
        /^#\[cfg\((any\(test, )?feature/ { class = "tooling"; next }
        class != "" && /^(pub )?mod [a-z_]+;/ {
            sub(/^(pub )?mod /, ""); sub(/;.*/, ""); print class, $0
        }
        { class = "" }' "$1"
}

total=0
rows=""
for src in crates/*/src; do
    crate=${src#crates/}
    crate=${crate%/src}
    gated=$(gated_modules "$src/lib.rs")
    n=0
    tooling=0
    detail=""
    while IFS= read -r file; do
        module=${file#"$src"/}
        module=${module%.rs}
        module=${module%%/*}
        class=$(awk -v m="$module" '$2 == m { print $1 }' <<<"$gated")
        [ "$class" = test ] && continue
        lines=$(count "$file")
        n=$((n + lines))
        if [ "$class" = tooling ]; then
            tooling=$((tooling + lines))
            detail+="${detail:+, }$module $lines"
        fi
    done < <(find "$src" -name '*.rs' | sort)
    total=$((total + n))
    rows+="$n $crate $tooling $detail"$'\n'
done

echo "| crate | non-test lines |"
echo "|---|---:|"
printf '%s' "$rows" | sort -rn | while read -r n crate tooling detail; do
    echo "| $crate | $n |"
    if [ "$tooling" -gt 0 ]; then
        echo "| ↳ of which feature-gated tooling ($detail) | $tooling |"
    fi
done
echo "| **total** | **$total** |"
