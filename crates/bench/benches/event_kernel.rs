//! **Micro-bench — simulation kernel.**
//!
//! Measures the discrete-event calendar (schedule+pop churn) against the
//! reference binary heap, and the end-to-end event rate of a small
//! full-network simulation — the number that bounds how much
//! simulated time a wall-clock second buys.
//!
//! Results are printed and recorded in `BENCH_kernel.json` at the repo
//! root (the events/sec baseline referenced by `scripts/check.sh`).
//!
//! Run: `cargo bench -p dqos-bench --bench event_kernel`

use dqos_bench::harness::{measure, write_json_merged, Measurement};
use dqos_bench::repo_root;
use dqos_core::Architecture;
use dqos_netsim::{Network, SimConfig};
use dqos_sim_core::{BinaryHeapQueue, EventQueue, SimDuration, SimRng, SimTime};
use std::hint::black_box;

const CHURN: usize = 100_000;

/// Pre-generated jitter stream so both calendars see identical work.
fn jitter(seed: u64) -> Vec<u64> {
    let mut rng = SimRng::new(seed);
    (0..CHURN).map(|_| rng.range_u64(1, 5_000)).collect()
}

/// Hold-model churn on the bucketed calendar: pop the earliest event,
/// reschedule it a small jitter ahead, repeat. This is the steady-state
/// access pattern of the simulator's event loop.
fn churn_bucketed(pending: usize, jit: &[u64]) -> u64 {
    let mut q = EventQueue::with_capacity(pending * 2);
    for i in 0..pending {
        q.schedule(SimTime::from_ns(i as u64), i as u64);
    }
    let mut out = 0u64;
    for &j in jit {
        let e = q.pop().expect("non-empty");
        out ^= e.payload;
        q.schedule(e.time + SimDuration::from_ns(j), e.payload);
    }
    out
}

/// Identical churn on the reference binary heap.
fn churn_heap(pending: usize, jit: &[u64]) -> u64 {
    let mut q = BinaryHeapQueue::with_capacity(pending * 2);
    for i in 0..pending {
        q.schedule(SimTime::from_ns(i as u64), i as u64);
    }
    let mut out = 0u64;
    for &j in jit {
        let e = q.pop().expect("non-empty");
        out ^= e.payload;
        q.schedule(e.time + SimDuration::from_ns(j), e.payload);
    }
    out
}

/// Full-simulation event rate: run a tiny network for 2 ms of simulated
/// time and report events per wall-clock second.
///
/// Recorded as `fullsim/...` rows; the pre-token-hot-path rates live on
/// in the file as `full_sim/...` rows (the merge-writer keeps them), so
/// the struct-of-arrays win stays auditable against its own baseline.
fn full_sim_rate(arch: Architecture) -> Measurement {
    let run = || {
        let mut cfg = SimConfig::tiny(arch, 0.5);
        cfg.warmup = SimDuration::from_us(100);
        cfg.measure = SimDuration::from_ms(2);
        let (_, summary) = Network::new(cfg).run();
        summary.events
    };
    let events = run();
    measure(&format!("fullsim/tiny_2ms/{}", arch.slug()), events, 5, run)
}

fn main() {
    println!("# event kernel micro-bench ({CHURN} churn ops per repetition)\n");
    let jit = jitter(1);
    let mut results: Vec<Measurement> = Vec::new();

    // Pending-event populations from a near-idle fabric (64) up to a
    // loaded 128-host paper network (tens of thousands of wake-ups,
    // credits and serialisation completions in flight).
    let pendings = [64usize, 1024, 4096, 65536];
    for pending in pendings {
        let b = measure(&format!("event_queue/bucketed/{pending}"), CHURN as u64, 9, || {
            black_box(churn_bucketed(pending, &jit))
        });
        let h = measure(&format!("event_queue/heap/{pending}"), CHURN as u64, 9, || {
            black_box(churn_heap(pending, &jit))
        });
        println!(
            "  -> bucketed speedup over heap at {pending} pending: {:.2}x\n",
            h.ns_per_elem / b.ns_per_elem
        );
        results.push(b);
        results.push(h);
    }

    // The committed file's `full_sim/...` rows are the pre-optimisation
    // baseline; read them before anything rewrites the file.
    let json_path = repo_root().join("BENCH_kernel.json");
    let baseline = std::fs::read_to_string(&json_path)
        .ok()
        .and_then(|s| dqos_stats::Json::parse(&s).ok());

    for arch in [Architecture::Traditional2Vc, Architecture::Advanced2Vc] {
        let m = full_sim_rate(arch);
        let old = baseline
            .as_ref()
            .and_then(|j| j.get(&format!("full_sim/tiny_2ms/{}", arch.slug())))
            .and_then(|row| row.get("rate_per_sec"))
            .and_then(|r| r.as_f64());
        if let Some(old_rate) = old {
            println!(
                "  -> {} full-sim speedup over recorded baseline: {:.2}x\n",
                arch.slug(),
                m.rate_per_sec / old_rate
            );
        }
        results.push(m);
    }

    // Headline numbers: the churn-workload speedup the calendar overhaul
    // buys (acceptance: >= 2x on the steady-state churn) and the
    // full-sim event rate.
    let of = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.ns_per_elem)
            .expect("measured above")
    };
    let mut extra: Vec<(String, f64)> = Vec::new();
    print!("\nchurn speedup (bucketed vs heap):");
    for pending in pendings {
        let s = of(&format!("event_queue/heap/{pending}"))
            / of(&format!("event_queue/bucketed/{pending}"));
        print!(" {s:.2}x @{pending}");
        extra.push((format!("speedup_bucketed_vs_heap_{pending}"), s));
    }
    println!();
    let steady = of("event_queue/heap/4096") / of("event_queue/bucketed/4096");
    if steady < 2.0 {
        eprintln!("warning: bucketed calendar below the 2x target at 4096 pending");
    }

    let extra_refs: Vec<(&str, f64)> = extra.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    write_json_merged(&json_path, &results, &extra_refs);
}
