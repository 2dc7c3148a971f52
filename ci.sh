#!/usr/bin/env bash
# Repository CI gate: formatting, lints, the full test suite, and the
# correctness exits of the audit, bench and benchmark bins.
#
#   ./ci.sh
#
# Each stage must pass for the script to exit zero. Clippy runs with
# warnings denied across every target (libs, bins, tests, benches) so new
# warnings fail the build instead of accumulating. `cargo test --workspace`
# runs every suite once in the debug profile; the stages after it run only
# what it does not: the kernel suites and the allocation count in the
# release profile, and the bins.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release (timed) =="
build_start=$(date +%s)
cargo build --release --workspace
build_end=$(date +%s)
echo "release build took $((build_end - build_start))s"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test -q =="
cargo test --workspace -q

echo "== kernel arms as compiled: kernel, tape-oracle and batched-differential suites (release profile) =="
cargo test --release -p tensor --lib -q
cargo test --release -p nn --test tape_oracle --test batched_differential -q

echo "== determinism audit: source lints + tape reduction orders =="
cargo run --release -p bench --bin det_audit -- --out target/BENCH_det_audit.json

echo "== parallel-safety audit: concurrency lints + schedule certification =="
cargo run --release -p bench --bin par_audit -- --out target/BENCH_par_audit.json

echo "== hot-path audit: panic-freedom + allocation-discipline lints =="
cargo run --release -p bench --bin hot_audit -- --out target/BENCH_hot_audit.json

echo "== zero-alloc steady state: counting-allocator certification (release profile) =="
cargo test --release -p serve --test zero_alloc -q

echo "== decode_bench smoke (2 requests, thread sweep) =="
cargo run --release -p bench --bin decode_bench -- \
  --requests 2 --batch 2 --max-out 8 --out target/BENCH_decode_smoke.json

echo "== serve_bench smoke (2 clients; gated on identical + no silent drops"
echo "   + cache phases bit-identical + 90%-reuse hit rate > 0) =="
cargo run --release -p bench --bin serve_bench -- \
  --requests 8 --clients 2 --slots 2 --max-out 8 \
  --out target/BENCH_serve_smoke.json

echo "== obs overhead smoke: obs-off throughput within 2% of baseline =="
cargo run --release -p bench --bin obs_report -- \
  --overhead --tol 0.02 --repeats 8 --out target/BENCH_obs_overhead.json

echo "== obs report: kernel attribution covers >=95% of the train step =="
DATAVIST5_OBS=1 cargo run --release -p bench --bin obs_report -- \
  --out target/BENCH_obs.json

echo "== repository benchmark: all four workloads, outputs match the pinned digests =="
cargo run --release -p bench --bin benchmark -- --seconds 2

echo "== A/B runner smoke: one pair of HEAD vs the working tree on serve-short =="
cargo run --release -p bench --bin ab -- --pairs 1 --seconds 2 --workload serve-short
for metric in throughput latency_p50_ms latency_p90_ms setup_s peak_rss_mb; do
  grep -q "\"metric\": \"$metric\"" target/ab/report.json
done

echo "ci: all stages passed"
