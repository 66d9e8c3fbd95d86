#!/usr/bin/env bash
# Tier-1 gate: offline build, full test suite, and the smoke benches.
# Everything runs with --offline — the workspace has zero external
# dependencies, so this must pass on a machine with no network and no
# pre-populated registry cache.
#
# Steps:
#   0. dqos-tidy: the in-tree static-analysis gate (DESIGN.md §8) —
#      determinism, concurrency-hygiene and robustness rules; the
#      workspace must report zero findings.
#   1. Release build, then a whole-workspace warning-free build
#      (RUSTFLAGS="-D warnings"). Before the tests, a check of every
#      target with every declared feature on (`--all-features`): a
#      feature whose gated code cannot build fails the gate instead of
#      rotting unseen.
#   2. Full test suite — includes tests/determinism.rs, the golden-
#      digest matrix (4 architectures x 3 seeds x 3 fault scenarios,
#      report JSON and traces pinned byte for byte).
#      Then the benchmark package's tests (perfbench/, a workspace of its
#      own, so the workspace run above never builds it): a change to an
#      API the benchmark calls fails here rather than only when the
#      benchmark is next run.
#   3. event_kernel bench: refreshes BENCH_kernel.json (events/sec
#      baseline, bucketed-vs-heap churn speedups), then the throughput
#      regression gate — the fresh `fullsim/tiny_2ms/traditional` rate
#      must stay above DQOS_PERF_GATE_PCT% (default 75) of the rate the
#      committed file recorded before the rerun. Set
#      DQOS_PERF_GATE_PCT=0 to disable on hosts too noisy to gate.
#      Then the figures bench on a tiny sweep (16 hosts, 1 ms windows,
#      two loads), so its per-class and per-cell lookups run in every
#      gate, not only when a figure is regenerated. It overwrites
#      target/figures/*.dat with the tiny sweep's data.
#   4. fault_matrix example: fault-injection smoke ({link-drop,
#      spine-down, clock-drift} each run twice, byte-identical; empty
#      plan perfectly inert).
#   5. Flight-recorder and daemon gates: the paper-conformance,
#      trace-determinism, and dqosd-chaos suites run explicitly (the
#      first two are the contract for the trace layer; the third is the
#      dqos-d loopback churn soak with mid-churn kill/recover/replay and
#      the torn-journal offset sweep, all seeded and offline),
#      then the trace-overhead smoke gate — a bounded-ring traced run
#      must stay within 1.5x of the untraced wall-clock, a full-capture
#      run within 2.75x (see examples/trace_overhead.rs for why two
#      budgets and how they were recalibrated after the hot-path work).
#   6. hotpath_profile example: the self-profiling where-ticks-go table
#      (slack attribution pointed at the simulator) and the memory
#      footprint of an untraced run (peak packets in flight, VmHWM,
#      set-up bytes per video stream, bytes per in-flight packet), so a
#      footprint regression shows in every gate run. Non-gating — its output is diagnostic, so a
#      failure warns instead of failing.
#   7. mcheck: bounded-exhaustive concurrency exploration of the
#      *production* SPSC ring protocol under the dqos-mcheck-rt
#      controlled scheduler (DESIGN.md §13) — the scheduler's own
#      self-tests, then the ring drivers and their seeded-bug
#      mutant-kill matrix. DQOS_MCHECK_BUDGET caps schedules per test
#      (default 4000, enough to kill every seeded mutant in seconds).
#      The plain release build in step 1 doubles as the zero-cost
#      check: with the feature off, sim-core's `_TSYNC_IS_STD` identity
#      coercion only compiles if the tsync shim *is* std::sync::atomic
#      (a re-export, not a wrapper) — no scheduler hooks in release.
set -euo pipefail
cd "$(dirname "$0")/.."

# Extract a row's rate_per_sec from the (stable, pretty-printed)
# benchmark JSON. Used by the throughput gate below.
fullsim_rate() {
  awk -v key="\"$1\"" '
    index($0, key) { grab = 1 }
    grab && /"rate_per_sec"/ { gsub(/[,]/, "", $2); print $2; exit }
  ' BENCH_kernel.json 2>/dev/null || true
}

cargo run --release --offline -p dqos-tidy
cargo build --release --offline
cargo check --offline --workspace --all-targets --all-features
cargo test -q --offline --workspace
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# The committed fullsim row is the baseline; read it before the bench
# rerun overwrites the file.
baseline_rate="$(fullsim_rate fullsim/tiny_2ms/traditional)"
cargo bench -q --offline -p dqos-bench --bench event_kernel
new_rate="$(fullsim_rate fullsim/tiny_2ms/traditional)"
gate_pct="${DQOS_PERF_GATE_PCT:-75}"
if [ -n "$baseline_rate" ] && [ -n "$new_rate" ] && [ "$gate_pct" != "0" ]; then
  awk -v new="$new_rate" -v base="$baseline_rate" -v pct="$gate_pct" 'BEGIN {
    floor = base * pct / 100.0
    printf "full-sim throughput gate: %.3gM events/sec vs recorded %.3gM (floor %.3gM = %s%%)\n",
           new / 1e6, base / 1e6, floor / 1e6, pct
    exit !(new >= floor)
  }' || {
    echo "FAIL: full-sim events/sec regressed below ${gate_pct}% of the recorded baseline" >&2
    echo "      (rerun on a quiet host, or set DQOS_PERF_GATE_PCT — 0 disables the gate)" >&2
    exit 1
  }
fi

DQOS_HOSTS=16 DQOS_WARMUP_MS=1 DQOS_MEASURE_MS=1 DQOS_LOADS=0.4,0.8 \
  cargo bench -q --offline -p dqos-bench --bench figures > /dev/null

cargo run --release --offline --example fault_matrix
cargo test -q --offline --release --test paper_conformance --test trace_determinism --test dqosd_chaos
cargo run --release --offline --example trace_overhead
cargo run --release --offline --example hotpath_profile \
  || echo "warning: hotpath_profile smoke failed (non-gating)" >&2
# Systematic concurrency check of the real lock-free ring (step 7).
cargo test -q --offline -p dqos-mcheck-rt --features sched
cargo test -q --offline --features mcheck --test mcheck_rt
# Last: flipping RUSTFLAGS invalidates cargo's cache, so the warning-free
# sweep rebuilds the world exactly once instead of thrice.
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace --all-targets
