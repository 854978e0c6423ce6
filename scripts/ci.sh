#!/usr/bin/env bash
# Local CI gate: build, test, format, lint. Run from the repo root.
#
# The workspace has no external dependencies, so everything here works
# offline (--offline keeps cargo from touching the network on machines
# with no registry cache). Requires rustfmt and clippy components.
set -euo pipefail
cd "$(dirname "$0")/.."

# Retired-API gate: perfbench still times the OS-thread sim-thread runtime
# (`fugu_sim::coro`) and names the trace oracle by its old `span::Profiler`
# alias, so both stay defined; no workspace source may use them again.
# Their own definitions (coro.rs, span.rs's re-export) are exempt.
if grep -rnE 'fugu_sim::coro|CoRuntime|\bProfiler\b' crates src examples tests --include='*.rs' \
  | grep -v -e '^crates/sim/src/coro.rs:' -e '^crates/sim/src/span.rs:.* as Profiler;$'; then
  echo "ci: a workspace source names fugu_sim::coro, CoRuntime or span::Profiler" >&2
  exit 1
fi
# The scenario model (spec, generator, machine mapping, runner) lives in
# fugu-bench alone; the engine crates, the apps and the top-level tests
# must not name it.
if grep -rnE 'ScenarioSpec|from_scenario|fugu_sim::explore' \
  crates/{sim,core,net,nic,glaze,crl,apps} src examples tests --include='*.rs'; then
  echo "ci: a source outside crates/bench names the scenario model" >&2
  exit 1
fi

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
# at any host parallelism, and its report and stdout table must match the
# committed results/chaos.{json,txt}.
cargo run --offline --release -p fugu-bench --bin chaos -- --quick --jobs 4 --json "$tmpdir/chaos_a.json" >"$tmpdir/chaos.txt"
cargo run --offline --release -p fugu-bench --bin chaos -- --quick --jobs 1 --json "$tmpdir/chaos_b.json" >/dev/null
cmp "$tmpdir/chaos_a.json" "$tmpdir/chaos_b.json" \
  || { echo "ci: chaos report not deterministic across --jobs" >&2; exit 1; }
cmp results/chaos.json "$tmpdir/chaos_a.json" \
  || { echo "ci: results/chaos.json drifted from regenerated output" >&2; exit 1; }
cmp results/chaos.txt "$tmpdir/chaos.txt" \
  || { echo "ci: results/chaos.txt drifted from regenerated output" >&2; exit 1; }
# Differential property test: the slab event queue vs a naive reference
# model in the test file (same pop order / now / cancel semantics). Covered
# by the workspace run; re-run by name for a standalone failure line.
cargo test --offline -q -p fugu-sim --test event_differential
# Differential property test: the uid-indexed trace oracle vs a hash-keyed
# reference model in the test file (same violations, tally and span
# report). Covered by the workspace run; re-run by name likewise.
cargo test --offline -q -p fugu-sim --test ledger_differential
# Post/request contract of the sim-thread exchange: answer-free calls
# (send, wake, the atomic-section bounds, touch_page) never yield and are
# applied in program order before the request, completion or panic that
# ends the poll; payloads of up to 14 words travel inline on both paths.
# Covered by the workspace run; re-run by name likewise.
cargo test --offline -q -p udm --test machine_tests -- posts_ payload_
# Differential property test: the node-indexed network tables vs a
# hash-keyed reference model of the arrival rule and in-flight counts.
# Covered by the workspace run; re-run by name likewise.
cargo test --offline -q -p fugu-net --test proptest_net arrivals_and_in_flight_match_a_hash_keyed_reference
# Host-time benchmark smoke: perfbench is a separate package, so build it
# here too or a crate API change that breaks it would pass. Every
# invocation first checks the RunReport digests in perfbench/golden.json at
# two seeds and replays its oracles (exits nonzero on any mismatch), so
# this loop runs all three golden-digest gates; the one-second runs only
# keep the timing phase short.
for workload in lu_skew barrier_oracle enum_fast; do
  cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seconds 1 >/dev/null
done
# The traced run is the only one that subscribes a counting closure,
# replays the recorded trace through fresh oracles and builds the
# per-layer ledger (~2 s).
cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
  --workload barrier_oracle --seconds 1 --trace 1 >/dev/null
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
# (all five apps), ablate (the only committed result that runs the
# polling-watchdog dispatch and 1–16-deep NIC queues) and the full-size
# Figure 7, 8, 9 and 10 sweeps — a few seconds each at --jobs 4 — and
# demand byte-identical JSON reports and stdout tables.
cargo run --offline --release -p fugu-bench --bin table4 -- --json "$tmpdir/table4.json" >"$tmpdir/table4.txt"
cargo run --offline --release -p fugu-bench --bin table5 -- --json "$tmpdir/table5.json" >"$tmpdir/table5.txt"
for result in table6 ablate fig7 fig8 fig9 fig10; do
  cargo run --offline --release -p fugu-bench --bin "$result" -- \
    --jobs 4 --json "$tmpdir/$result.json" >"$tmpdir/$result.txt"
done
for result in table4 table5 table6 ablate fig7 fig8 fig9 fig10; do
  for ext in json txt; do
    cmp "results/$result.$ext" "$tmpdir/$result.$ext" \
      || { echo "ci: results/$result.$ext drifted from regenerated output" >&2; exit 1; }
  done
done
# Profile drift gate: the full-size span profile must reproduce the
# committed BENCH_PROFILE.json byte for byte, so oracle and trace changes
# cannot move the latency distributions unnoticed (~1 s at --jobs 4).
cargo run --offline --release -p fugu-bench --bin profile -- --jobs 4 --json "$tmpdir/profile.json" >/dev/null
cmp BENCH_PROFILE.json "$tmpdir/profile.json" \
  || { echo "ci: BENCH_PROFILE.json drifted from regenerated output" >&2; exit 1; }
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc gate: a broken, private or redundant intra-doc link fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
echo "ci: all checks passed"
