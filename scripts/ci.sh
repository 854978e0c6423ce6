#!/usr/bin/env bash
# Local CI gate: build, test, format, lint. Run from the repo root.
#
# The workspace has no external dependencies, so everything here works
# offline (--offline keeps cargo from touching the network on machines
# with no registry cache). Requires rustfmt and clippy components.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --offline --release
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo test --offline --workspace -q
# Property tests (seeded, replayable): vbuf ordering/accounting and CRL
# exactly-once under fault injection. Covered by the workspace run above;
# re-run by name so a failure is visible on its own line.
cargo test --offline -q -p fugu-glaze --test vbuf_props
cargo test --offline -q -p fugu-apps --test crl_chaos_props
# Chaos smoke: sweep fault injection over every app and assert the
# delivery guarantees (exits nonzero on any violation). The sweep is a
# pure function of the seed, so its JSON report must be byte-identical
# at any host parallelism.
cargo run --offline --release -p fugu-bench --bin chaos -- --quick --jobs 4 --json "$tmpdir/chaos_a.json"
cargo run --offline --release -p fugu-bench --bin chaos -- --quick --jobs 1 --json "$tmpdir/chaos_b.json" >/dev/null
cmp "$tmpdir/chaos_a.json" "$tmpdir/chaos_b.json" \
  || { echo "ci: chaos report not deterministic across --jobs" >&2; exit 1; }
# Differential property test: the slab event queue vs a naive reference
# model in the test file (same pop order / now / cancel semantics). Covered
# by the workspace run; re-run by name for a standalone failure line.
cargo test --offline -q -p fugu-sim --test event_differential
# Host-time benchmark smoke: perfbench is a separate package, so build it
# here too or a crate API change that breaks it would pass. Every
# invocation first checks the RunReport digests in perfbench/golden.json at
# two seeds and replays its oracles (exits nonzero on any mismatch); the
# one-second runs only keep the timing phase short.
for workload in lu_skew barrier_oracle; do
  cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seconds 1 >/dev/null
done
# perfbench's unit tests build a RunReport by hand and pin its digest, so
# a report API change can break them while the runs above still pass.
cargo test --offline --release -q --manifest-path perfbench/Cargo.toml
# Profiler determinism gate: run the span profiler twice on the same seed
# and demand byte-identical JSON and Perfetto outputs. The binary itself
# asserts 100% stitch rate, exact attribution sums, and that both
# artifacts round-trip through Json::parse (exits nonzero otherwise).
cargo run --offline --release -p fugu-bench --bin profile -- --quick --json "$tmpdir/profile_a.json" >/dev/null
cargo run --offline --release -p fugu-bench --bin profile -- --quick --json "$tmpdir/profile_b.json" >/dev/null
cmp "$tmpdir/profile_a.json" "$tmpdir/profile_b.json" \
  || { echo "ci: profile JSON not deterministic across identical runs" >&2; exit 1; }
cmp "$tmpdir/profile_a.trace.json" "$tmpdir/profile_b.trace.json" \
  || { echo "ci: perfetto trace not deterministic across identical runs" >&2; exit 1; }
# Explorer smoke: a fixed-seed, bounded-budget sweep of the scenario
# space under the full oracle stack (exits nonzero on any invariant
# violation). Run twice at different host parallelism and demand
# byte-identical corpus JSON (the sweep is a pure function of seed and
# budget), then compare against the checked-in golden corpus — if a
# legitimate engine change shifts behavior, regenerate with:
#   cargo run --release -p fugu-bench --bin explore -- \
#     --quick --budget 32 --jobs 4 --json results/explore_corpus.json
# and commit the diff.
cargo run --offline --release -p fugu-bench --bin explore -- \
  --quick --budget 32 --jobs 4 --json "$tmpdir/explore_a.json" >/dev/null
cargo run --offline --release -p fugu-bench --bin explore -- \
  --quick --budget 32 --jobs 1 --json "$tmpdir/explore_b.json" >/dev/null
cmp "$tmpdir/explore_a.json" "$tmpdir/explore_b.json" \
  || { echo "ci: explore corpus not deterministic across --jobs" >&2; exit 1; }
cmp results/explore_corpus.json "$tmpdir/explore_a.json" \
  || { echo "ci: results/explore_corpus.json drifted from regenerated output" >&2; exit 1; }
# Behavioral-drift gates: engine/perf work must never change simulated
# results. Regenerate, with the committed flags, table4 (fast-path send,
# interrupt and poll costs), table5 (buffered-path extract costs), table6
# (all five apps) — seconds each — and ablate (~15 s at --jobs 2; the only
# committed result that runs the polling-watchdog dispatch and 1–16-deep
# NIC queues), and demand byte-identical output.
cargo run --offline --release -p fugu-bench --bin table4 -- --json "$tmpdir/table4.json" >/dev/null
cargo run --offline --release -p fugu-bench --bin table5 -- --json "$tmpdir/table5.json" >/dev/null
cargo run --offline --release -p fugu-bench --bin table6 -- --jobs 4 --json "$tmpdir/table6.json" >/dev/null
cargo run --offline --release -p fugu-bench --bin ablate -- --jobs 4 --json "$tmpdir/ablate.json" >/dev/null
for result in table4 table5 table6 ablate; do
  cmp "results/$result.json" "$tmpdir/$result.json" \
    || { echo "ci: results/$result.json drifted from regenerated output" >&2; exit 1; }
done
# Profile drift gate: the full-size span profile must reproduce the
# committed BENCH_PROFILE.json byte for byte, so oracle and trace changes
# cannot move the latency distributions unnoticed (~50 s at --jobs 2).
cargo run --offline --release -p fugu-bench --bin profile -- --jobs 4 --json "$tmpdir/profile.json" >/dev/null
cmp BENCH_PROFILE.json "$tmpdir/profile.json" \
  || { echo "ci: BENCH_PROFILE.json drifted from regenerated output" >&2; exit 1; }
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "ci: all checks passed"
