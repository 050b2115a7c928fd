#!/usr/bin/env bash
# The performance gate: the repo benchmark (benchmark/, BENCHMARK.json) of
# <base-rev> against the one of this checkout, both built and run here, so
# the baseline is measured on the host that runs the gate. Seeds alternate
# which side runs first. The exit code is `compare`'s: 0 no regression,
# 1 regression or failed operations, 2 usage or I/O. About 10 minutes.
#
#   bench/gate.sh <base-rev>      # CI: the PR's base; by hand: HEAD~1
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:?usage: bench/gate.sh <base-rev>}

OUT=benchmark/out/gate
BIN=$(sed -n 's/^name = "\(.*\)"$/\1/p' benchmark/Cargo.toml) # the package names its binary
rm -rf "$OUT"
mkdir -p "$OUT/src"
git archive "$base" | tar -x -C "$OUT/src"

build() { # <checkout> <side>: build its benchmark/, keep the binary as $OUT/<side>
    cargo build --release --offline --manifest-path "$1/benchmark/Cargo.toml"
    cp "${CARGO_TARGET_DIR:-$1/benchmark/target}/release/$BIN" "$OUT/$2"
}
build "$OUT/src" base
build . head

order="base head"
for seed in 1 2 3; do
    for side in $order; do
        echo "== $side, seed $seed"
        "$OUT/$side" --seed "$seed" --out "$OUT/$side.json" | tee -a "$OUT/$side.log" | grep '^=='
    done
    order=${order#* }" "${order% *}
done

echo "== head against base"
"$OUT/head" compare "$OUT/base.json" "$OUT/head.json"
