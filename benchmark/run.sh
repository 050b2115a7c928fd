#!/usr/bin/env bash
# Kick the tires from a clean state: wipe benchmark/out, build, run the
# untraced benchmark twice (sets A and B, the same seeds in each) and the
# traced one once, compare B against A under the bounds of BENCHMARK.json,
# and print where the time goes. About 15 minutes with the default seeds.
#
#   SEEDS="1 2 3" benchmark/run.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=${SEEDS:-"1 2 3"}
OUT=benchmark/out
rm -rf "$OUT"
mkdir -p "$OUT"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
BIN=${CARGO_TARGET_DIR:-benchmark/target}/release/symspmv-benchmark

for set in A B; do
    for seed in $SEEDS; do
        echo "== untraced set $set, seed $seed"
        "$BIN" --seed "$seed" --out "$OUT/$set.json" | tee -a "$OUT/$set.log" | grep '^=='
    done
done

echo "== traced, seed 1: where the time goes"
"$BIN" --seed 1 --trace 1 --out "$OUT/traced.json" | tee "$OUT/traced.log" | grep -E '^(#|==)'

echo "== B against A"
"$BIN" compare "$OUT/A.json" "$OUT/B.json"
