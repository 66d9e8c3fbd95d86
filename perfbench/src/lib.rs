//! End-to-end and per-layer benchmark of the deadline-QoS simulator and
//! the dqos-d control plane.
//!
//! One binary runs one workload per invocation (see `BENCHMARK.md` in
//! this directory for the workloads, metrics and the reasons behind
//! them). Everything here calls the repository's crates only through
//! their public functions: layers are measured from outside, by timing
//! calls into them, never by instrumenting them.
//!
//! * `sim` — the two simulator workloads (`paper128_adv`,
//!   `clos16_trad`): untraced end-to-end runs, and the traced run that
//!   builds the per-layer ledger.
//! * `churn` — the `dqosd_churn` control-plane workload: a closed loop
//!   of virtual clients against a daemon recovered from a seeded store.
//! * `layers` — the per-layer micro-timings the ledgers multiply by
//!   their op counts.
//! * [`host`] — host facts, peak RSS and the small statistics helpers.

// The one exception is `host::cpu_s`, a call to `clock_gettime`.
#![deny(unsafe_code)]

mod churn;
pub mod host;
mod layers;
mod sim;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 128-host fabric, Advanced 2-VC switches, load 1.0.
    Paper128Adv,
    /// The 16-host fabric, Traditional 2-VC switches (no deadlines), load 0.4.
    Clos16Trad,
    /// dqos-d admission churn from a closed loop of virtual clients.
    DqosdChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Paper128Adv,
        Workload::Clos16Trad,
        Workload::DqosdChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper128Adv => "paper128_adv",
            Workload::Clos16Trad => "clos16_trad",
            Workload::DqosdChurn => "dqosd_churn",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work one invocation does.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Host seconds the measured phase runs for (at least `min_reps`
    /// repetitions are made even if they take longer).
    pub seconds: f64,
    /// Fewest repetitions of the measured unit.
    pub min_reps: usize,
    /// `true` shrinks every workload to a smoke-test size (the tests use
    /// it; the command line never does).
    pub short: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one invocation produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (runs, requests, checks — see each workload).
    pub attempted: u64,
    /// Of those, operations that failed a correctness check or were
    /// given up.
    pub failed: u64,
    /// End-to-end metrics (untraced invocation) or per-layer metrics
    /// (traced invocation).
    pub metrics: Vec<Metric>,
    /// Deterministic counts: identical for one seed on any host, so the
    /// tests compare them across runs and seeds.
    pub counts: Vec<(&'static str, u64)>,
    /// Human-readable tables printed above the result line.
    pub report: String,
    /// Side files written to the output directory: `(file name, contents)`.
    pub files: Vec<(String, String)>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Look up a deterministic count by name.
    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (non-finite values, which no metric should produce, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// The per-layer metric names every traced invocation reports, with
/// their units. A workload that never executes a layer reports 0 for it
/// (no operations, no time).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("queue.events", "count"),
    ("queue.ns_per_op", "ns"),
    ("queue.busy_share", "ratio"),
    ("ring.ns_per_record", "ns"),
    ("twoqueue.ns_per_op", "ns"),
    ("fifo.ns_per_op", "ns"),
    ("twoqueue.take_over_ratio", "ratio"),
    ("switch.grants", "count"),
    ("switch.ns_per_packet", "ns"),
    ("switch.order_error_ratio", "ratio"),
    ("nic.ns_per_packet", "ns"),
    ("sink.ns_per_packet", "ns"),
    ("stamp.ns_per_packet", "ns"),
    ("admission.us_per_admit", "us"),
    ("topology.build_ms", "ms"),
    ("traffic.ns_per_message", "ns"),
    ("hist.ns_per_record", "ns"),
    ("netsim.new_ms", "ms"),
    ("netsim.unexplained_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("wire.ns_per_roundtrip", "ns"),
    ("daemon.serve_us.setup", "us"),
    ("daemon.serve_us.stamp", "us"),
    ("daemon.serve_us.teardown", "us"),
    ("daemon.serve_us.query", "us"),
    ("daemon.digest_us", "us"),
    ("journal.ns_per_record", "ns"),
    ("snapshot.ms", "ms"),
    ("recover.ms", "ms"),
    ("dqosd.shed_ratio", "ratio"),
    ("client.retry_ratio", "ratio"),
];

/// The end-to-end metric names every untraced invocation reports.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_ns_per_s", "ns/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("requests_per_s", "1/s"),
    ("request_p50_us", "us"),
    ("request_p99_us", "us"),
];

/// Order `measured` per-layer values into the full [`PER_LAYER`] list,
/// filling layers the workload never executed with 0.
pub fn per_layer_metrics(out: &mut Outcome, measured: &[(&'static str, f64)]) {
    for &(name, unit) in PER_LAYER {
        let v = measured
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        out.metric(name, v, unit);
    }
    debug_assert!(
        measured
            .iter()
            .all(|(k, _)| PER_LAYER.iter().any(|(n, _)| n == k)),
        "a measured per-layer metric is missing from PER_LAYER"
    );
}

/// Run `workload` once.
pub fn run(workload: Workload, seed: u64, budget: Budget, trace: bool) -> Outcome {
    match (workload, trace) {
        (Workload::DqosdChurn, false) => churn::measure(seed, budget),
        (Workload::DqosdChurn, true) => churn::ledger(seed, budget),
        (w, false) => sim::measure(w, seed, budget),
        (w, true) => sim::ledger(w, seed, budget),
    }
}
