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
#      (RUSTFLAGS="-D warnings").
#   2. Full test suite — includes tests/determinism.rs, the serial-vs-
#      parallel equivalence matrix (4 architectures x 3 seeds x 3 fault
#      scenarios, report JSON byte-identical at every worker count).
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
#   4. partition_scaling bench: asserts parallel == serial bit-for-bit
#      at workers {2, 4, 8}, then records event rates and per-count
#      "speedup_valid_workers_{w}" flags into BENCH_parallel.json
#      (counts wider than host_cpus are exactness-checked but not
#      timed). When host_cpus >= 2 the recorded speedup_workers_2 must
#      clear DQOS_PAR_GATE (default 1.3; 0 disables) — the free-running
#      executor is expected to *win*, not merely match. On a single-CPU
#      host the exactness matrix is the whole gate.
#   5. fault_matrix example at DQOS_WORKERS=2: fault-injection smoke
#      ({link-drop, spine-down, clock-drift} each run serial then
#      parallel, byte-identical; empty plan perfectly inert).
#   6. Flight-recorder and daemon gates: the paper-conformance,
#      trace-determinism, and dqosd-chaos suites run explicitly (the
#      first two are the contract for the trace layer; the third is the
#      dqos-d loopback churn soak with mid-churn kill/recover/replay and
#      the torn-journal offset sweep, all seeded and offline),
#      then the trace-overhead smoke gate — a bounded-ring traced run
#      must stay within 1.5x of the untraced wall-clock, a full-capture
#      run within 2.75x (see examples/trace_overhead.rs for why two
#      budgets and how they were recalibrated after the hot-path work).
#   7. hotpath_profile example: the self-profiling where-ticks-go table
#      (slack attribution pointed at the simulator) and the memory
#      footprint of an untraced run (peak packets in flight, VmHWM,
#      set-up bytes per video stream, bytes per in-flight packet), so a
#      footprint regression shows in every gate run. Non-gating — its output is diagnostic, so a
#      failure warns instead of failing.
#   8. mcheck: bounded-exhaustive concurrency exploration of the
#      *production* ring/exec protocols under the dqos-mcheck-rt
#      controlled scheduler (DESIGN.md §13) — the scheduler's own
#      self-tests, then the real-code drivers and their seeded-bug
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

cargo bench -q --offline -p dqos-bench --bench partition_scaling

# Parallel speedup gate. Exactness already passed inside the bench (it
# refuses to write the file otherwise); here we additionally demand a
# real multi-core win when the host can express one.
par_value() {
  awk -v key="\"$1\"" '
    index($0, key) { gsub(/[,]/, "", $2); print $2; exit }
  ' BENCH_parallel.json 2>/dev/null || true
}
par_gate="${DQOS_PAR_GATE:-1.3}"
host_cpus="$(par_value host_cpus)"
if [ -n "$host_cpus" ] && [ "$host_cpus" -ge 2 ] && [ "$par_gate" != "0" ]; then
  speedup2="$(par_value speedup_workers_2)"
  if [ -z "$speedup2" ]; then
    echo "FAIL: host has $host_cpus CPUs but BENCH_parallel.json has no speedup_workers_2 row" >&2
    exit 1
  fi
  awk -v s="$speedup2" -v gate="$par_gate" 'BEGIN {
    printf "parallel speedup gate: workers=2 at %.2fx (floor %sx)\n", s, gate
    exit !(s >= gate)
  }' || {
    echo "FAIL: 2-worker speedup below ${par_gate}x on a ${host_cpus}-CPU host" >&2
    echo "      (rerun on a quiet host, or set DQOS_PAR_GATE — 0 disables the gate)" >&2
    exit 1
  }
else
  echo "parallel speedup gate: skipped (host_cpus=${host_cpus:-?}, DQOS_PAR_GATE=${par_gate})"
fi

DQOS_WORKERS=2 cargo run --release --offline --example fault_matrix
cargo test -q --offline --release --test paper_conformance --test trace_determinism --test dqosd_chaos
cargo run --release --offline --example trace_overhead
cargo run --release --offline --example hotpath_profile \
  || echo "warning: hotpath_profile smoke failed (non-gating)" >&2
# Systematic concurrency check of the real lock-free protocols (step 8).
cargo test -q --offline -p dqos-mcheck-rt --features sched
cargo test -q --offline --features mcheck --test mcheck_rt
# Last: flipping RUSTFLAGS invalidates cargo's cache, so the warning-free
# sweep rebuilds the world exactly once instead of thrice.
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace --all-targets
