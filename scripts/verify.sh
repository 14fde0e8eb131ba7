#!/usr/bin/env sh
# One-shot verification gate for this workspace, exactly as the offline
# environment allows (no network, empty registry cache). Every PR must keep
# this green.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo test --doc"
cargo test --doc -q --offline

echo "==> cargo build --workspace --all-targets (benches, examples, reproduce)"
cargo build --workspace --all-targets --offline

echo "==> benchmark package (perfbench/) builds and passes its tests against the workspace API"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> equivalence suite (event-driven == naive stepping, bit for bit)"
cargo test -q --offline --test equivalence

echo "==> randomized equivalence stress suite (pinned seed, 250 short random configs)"
LOCO_STRESS_SEED=538510120 LOCO_STRESS_CONFIGS=250 \
    cargo test -q --offline --test equivalence randomized_short_configs

echo "==> bit-identity oracles in release mode (the fabric's index arithmetic wraps there instead of panicking)"
cargo test --release -q --offline -p loco-noc --test golden_fingerprint
LOCO_STRESS_SEED=538510120 LOCO_STRESS_CONFIGS=250 \
    cargo test --release -q --offline --test equivalence randomized_short_configs

echo "==> energy suite (golden breakdown fingerprint, run/run_naive and thread invariance)"
cargo test -q --offline --test energy

echo "==> parallel campaign smoke (reproduce: 4-thread output == 1-thread output, byte for byte)"
cargo build --release --offline -q -p loco-bench --bin reproduce
./target/release/reproduce --params quick --threads 4 --json target/campaign_t4.json > target/campaign_t4.txt 2>/dev/null
./target/release/reproduce --params quick --threads 1 --json target/campaign_t1.json > target/campaign_t1.txt 2>/dev/null
cmp target/campaign_t1.txt target/campaign_t4.txt
cmp target/campaign_t1.json target/campaign_t4.json

echo "==> EXPERIMENTS.md is current (quick params, all figures, regenerated byte for byte)"
./target/release/reproduce --params quick --figures all --markdown target/EXPERIMENTS.md > /dev/null 2>&1
cmp target/EXPERIMENTS.md EXPERIMENTS.md || { echo "EXPERIMENTS.md is stale: regenerate it with reproduce --params quick --figures all --markdown EXPERIMENTS.md"; exit 1; }

echo "==> energy-figure smoke (fig17/fig18 on quick params, 1-vs-4-thread byte identity)"
./target/release/reproduce --params quick --figures fig17,fig18 --threads 4 --json target/energy_t4.json > target/energy_t4.txt 2>/dev/null
./target/release/reproduce --params quick --figures fig17,fig18 --threads 1 --json target/energy_t1.json > target/energy_t1.txt 2>/dev/null
cmp target/energy_t1.txt target/energy_t4.txt
cmp target/energy_t1.json target/energy_t4.json
./target/release/reproduce --list-figures > target/figures.txt
for n in 06 07 08 09 10 11 12 13 14 15 16 17 18 19; do
    grep -q "^fig$n " target/figures.txt || { echo "fig$n missing from --list-figures"; exit 1; }
done

echo "==> stall-heavy figure smoke (fig19 stress scenarios, 1-vs-2-thread byte identity)"
./target/release/reproduce --params quick --figures fig19 --threads 2 --json target/stall_t2.json > target/stall_t2.txt 2>/dev/null
./target/release/reproduce --params quick --figures fig19 --threads 1 --json target/stall_t1.json > target/stall_t1.txt 2>/dev/null
cmp target/stall_t1.txt target/stall_t2.txt
cmp target/stall_t1.json target/stall_t2.json

echo "==> CLI rejects senseless --threads values"
if ./target/release/reproduce --params quick --threads 1000000 >/dev/null 2>target/threads_err.txt; then
    echo "reproduce accepted --threads 1000000"; exit 1
fi
grep -q "makes no sense" target/threads_err.txt || { echo "missing --threads error message"; exit 1; }

echo "==> bench smoke (--quick campaign, timings to target/)"
sh scripts/bench.sh --quick --samples 1 --out target/BENCH_smoke.json

echo "==> verify OK"
