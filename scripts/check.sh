#!/usr/bin/env bash
# Tier-1 gate: offline build, full test suite, a throughput floor, and
# the smoke runs.
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
#   3. Throughput floor on perfbench's `clos16_trad` workload (16
#      hosts, Traditional switches, load 0.4), built into
#      perfbench/target so it reuses the build of step 2: one 10 s run
#      must exit 0 with `correct: true`, `failed: 0` and `sim_ns_per_s`
#      at or above PERF_FLOOR_SIM_NS_PER_S. The metric is simulated ns
#      per *reference* second (perfbench's HostSpeed calibration loop
#      runs beside the simulation), so one committed floor holds across
#      hosts; DESIGN.md §10.4 records the runs it was set from.
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
#   6. hotpath_profile example: the memory footprint of one untraced
#      16-host run (peak packets in flight, peak pending events,
#      VmHWM, set-up bytes per video stream, bytes per in-flight
#      packet), so a footprint regression shows in every gate run; a
#      panic or a broken run invariant fails the gate.
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

# Step 3's floor, in simulated ns per reference second: 0.73 of the
# median of twelve runs of the gate's exact command on a 2-vCPU Xeon
# (min 30.6, median 35.7, max 38.8 M; DESIGN.md §10.4). Change it only
# from a new set of runs.
PERF_FLOOR_SIM_NS_PER_S=26000000

cargo run --release --offline -p dqos-tidy
cargo build --release --offline
cargo check --offline --workspace --all-targets --all-features
cargo test -q --offline --workspace
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

perf_out="$(CARGO_TARGET_DIR=perfbench/target python3 perfbench/run.py \
  --workload clos16_trad --seed 1 --seconds 10 --trace 0)" || {
  echo "FAIL: perfbench clos16_trad run exited non-zero" >&2
  exit 1
}
printf '%s\n' "$perf_out" | tail -n 1 | python3 -c '
import json, sys
floor = float(sys.argv[1])
r = json.loads(sys.stdin.read())
correct, failed = r["correct"], r["failed"]
print(f"throughput floor: clos16_trad correct={correct} failed={failed}")
if correct is not True or failed != 0:
    sys.exit("FAIL: the clos16_trad run is not correct or has failed operations")
rate = r["metrics"]["sim_ns_per_s"]["value"]
print(f"throughput floor: clos16_trad {rate / 1e6:.1f} M sim-ns/s, floor {floor / 1e6:.1f} M")
if not rate >= floor:
    sys.exit("FAIL: clos16_trad sim_ns_per_s is below the committed floor")
' "$PERF_FLOOR_SIM_NS_PER_S"

DQOS_HOSTS=16 DQOS_WARMUP_MS=1 DQOS_MEASURE_MS=1 DQOS_LOADS=0.4,0.8 \
  cargo bench -q --offline -p dqos-bench --bench figures > /dev/null

cargo run --release --offline --example fault_matrix
cargo test -q --offline --release --test paper_conformance --test trace_determinism --test dqosd_chaos
cargo run --release --offline --example trace_overhead
cargo run --release --offline --example hotpath_profile
# Systematic concurrency check of the real lock-free ring (step 7).
cargo test -q --offline -p dqos-mcheck-rt --features sched
cargo test -q --offline --features mcheck --test mcheck_rt
# Last: flipping RUSTFLAGS invalidates cargo's cache, so the warning-free
# sweep rebuilds the world exactly once instead of thrice.
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace --all-targets
