//! # dqos-bench
//!
//! Shared harness for the figure/table benches (the `benches/` targets of
//! this crate regenerate every table and figure of the paper's
//! evaluation; see DESIGN.md §4 for the index).
//!
//! ## Scaling knobs (environment variables)
//!
//! | Variable          | Default        | Meaning |
//! |-------------------|----------------|---------|
//! | `DQOS_PAPER=1`    | off            | full 128-host paper network (slow) |
//! | `DQOS_HOSTS`      | 16             | host count (multiple of 8) |
//! | `DQOS_MEASURE_MS` | 10             | measurement window per point |
//! | `DQOS_WARMUP_MS`  | 12             | warm-up (must exceed the 10 ms frame pipeline) |
//! | `DQOS_LOADS`      | .2,.4,.6,.8,1  | sweep points |
//! | `DQOS_SEED`       | 0xD05E         | master seed |
//!
//! Figures 2, 3 and 4 all read the *same* simulations (the paper runs one
//! workload and reports three views of it), so one bench, `figures`,
//! runs the sweep once and prints all three.

#![forbid(unsafe_code)]

use dqos_core::Architecture;
use dqos_netsim::{run_one, RunSummary, SimConfig};
use dqos_sim_core::{default_workers, par_map};
use dqos_stats::Report;
use dqos_topology::ClosParams;
use std::path::PathBuf;

/// Sweep parameters read from the environment.
#[derive(Debug, Clone)]
pub struct BenchEnv {
    /// Host count.
    pub hosts: u16,
    /// Measurement window, ms.
    pub measure_ms: u64,
    /// Warm-up, ms.
    pub warmup_ms: u64,
    /// Load points.
    pub loads: Vec<f64>,
    /// Master seed.
    pub seed: u64,
}

impl BenchEnv {
    /// Read the environment (see crate docs for the knobs).
    pub fn from_env() -> Self {
        let paper = std::env::var("DQOS_PAPER").map(|v| v == "1").unwrap_or(false);
        let get = |k: &str, d: u64| -> u64 {
            std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(d)
        };
        let hosts = if paper {
            128
        } else {
            get("DQOS_HOSTS", 16) as u16
        };
        let loads = std::env::var("DQOS_LOADS")
            .ok()
            .map(|v| {
                v.split(',')
                    // tidy: allow(no-unwrap) -- bench harness CLI contract:
                    // a malformed DQOS_LOADS should abort the run loudly.
                    .map(|s| s.trim().parse::<f64>().expect("DQOS_LOADS entries are numbers"))
                    .collect()
            })
            .unwrap_or_else(|| vec![0.2, 0.4, 0.6, 0.8, 1.0]);
        BenchEnv {
            hosts,
            measure_ms: get("DQOS_MEASURE_MS", if paper { 50 } else { 10 }),
            warmup_ms: get("DQOS_WARMUP_MS", if paper { 15 } else { 12 }),
            loads,
            seed: get("DQOS_SEED", 0xD0_5E),
        }
    }

    /// The simulation config for one (architecture, load) point.
    pub fn config(&self, arch: Architecture, load: f64) -> SimConfig {
        let mut c = SimConfig::paper(arch, load);
        c.topology = ClosParams::scaled(self.hosts);
        c.measure = dqos_sim_core::SimDuration::from_ms(self.measure_ms);
        c.warmup = dqos_sim_core::SimDuration::from_ms(self.warmup_ms);
        c.seed = self.seed;
        c
    }

    /// The highest load point (where the paper takes its CDFs).
    pub fn max_load(&self) -> f64 {
        self.loads.iter().cloned().fold(0.0, f64::max)
    }
}

/// The workspace `target/` directory. Bench binaries run with the
/// package directory as CWD, so a relative "target" would land under
/// `crates/bench/`; resolve against the manifest location instead.
fn target_dir() -> PathBuf {
    match std::env::var("CARGO_TARGET_DIR") {
        Ok(t) => PathBuf::from(t),
        Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"),
    }
}

/// Run independent configs spread over the host's cores ([`par_map`]),
/// results in input order.
pub fn run_configs(cfgs: Vec<SimConfig>) -> Vec<(Report, RunSummary)> {
    let workers = default_workers(cfgs.len());
    par_map(cfgs, workers, run_one)
}

/// One simulated sweep point: architecture, load, report, summary.
pub type SweepPoint = (Architecture, f64, Report, RunSummary);

/// Run the full figure sweep: every architecture at every load, the
/// points spread over the host's cores ([`par_map`]; each point is one
/// independent, deterministic run).
/// Returns `(arch, load, report, summary)` tuples in deterministic
/// order: architecture-major, loads as given.
pub fn run_sweep(env: &BenchEnv) -> Vec<SweepPoint> {
    let points: Vec<(Architecture, f64)> = Architecture::ALL
        .iter()
        .flat_map(|&arch| env.loads.iter().map(move |&load| (arch, load)))
        .collect();
    let workers = default_workers(points.len());
    par_map(points, workers, |(arch, load)| {
        eprintln!("  running {} @ {:.0}% ...", arch.label(), load * 100.0);
        let (report, summary) = run_one(env.config(arch, load));
        assert_eq!(summary.out_of_order, 0, "in-order guarantee violated");
        (arch, load, report, summary)
    })
}

/// The `(arch, load)` cell of a sweep.
///
/// # Panics
/// If the sweep has no such cell. Callers take `arch` from
/// [`Architecture::ALL`] and `load` from the [`BenchEnv`] the sweep was
/// run from, so a miss is a bug in the bench.
pub fn point(sweep: &[SweepPoint], arch: Architecture, load: f64) -> &SweepPoint {
    sweep
        .iter()
        .find(|(a, l, _, _)| *a == arch && *l == load)
        // tidy: allow(no-unwrap) -- documented panic: the sweep was built
        // from this exact (arch, load) grid, so every cell is present.
        .expect("sweep covers the grid")
}

/// The delivered throughput of one class over the report's window, Gb/s.
///
/// # Panics
/// If the report has no class of that name (a Table-1 class label is
/// expected).
pub fn throughput_gbps(r: &Report, class: &str) -> f64 {
    r.class(class)
        // tidy: allow(no-unwrap) -- documented panic: every report carries
        // the four Table-1 classes.
        .expect("report carries every Table-1 class")
        .delivered
        .throughput(r.window_start, r.window_end)
        .as_gbps_f64()
}

/// Print a `load × architecture` series table, and mirror it as a
/// gnuplot-ready `.dat` file under `target/figures/` (one column per
/// architecture).
///
/// `value` extracts the plotted quantity from a report.
pub fn print_series(
    title: &str,
    unit: &str,
    sweep: &[SweepPoint],
    loads: &[f64],
    mut value: impl FnMut(&Report) -> f64,
) {
    println!("\n## {title} [{unit}]");
    let mut dat = format!("# {title} [{unit}]\n# load%");
    for arch in Architecture::ALL {
        dat.push_str(&format!(" \"{}\"", arch.label()));
    }
    dat.push('\n');
    print!("{:>8}", "load%");
    for arch in Architecture::ALL {
        print!(" {:>18}", arch.label());
    }
    println!();
    for &load in loads {
        print!("{:>8.0}", load * 100.0);
        dat.push_str(&format!("{:.0}", load * 100.0));
        for arch in Architecture::ALL {
            let v = value(&point(sweep, arch, load).2);
            print!(" {:>18.2}", v);
            dat.push_str(&format!(" {v:.4}"));
        }
        println!();
        dat.push('\n');
    }
    write_figure_file(title, &dat);
}

/// Slugify a title and write the data file under `target/figures/`.
fn write_figure_file(title: &str, contents: &str) {
    let slug: String = title
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_");
    let dir = target_dir().join("figures");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{slug}.dat")), contents);
    }
}

/// Print a latency CDF per architecture at one load (the paper's CDF
/// panels), as `value fraction` columns; the full-resolution curves are
/// also written to `target/figures/` (gnuplot `index`-separated blocks,
/// one per architecture).
pub fn print_cdf(
    title: &str,
    sweep: &[SweepPoint],
    load: f64,
    unit_div: f64,
    unit: &str,
    points: usize,
    hist_of: impl Fn(&Report) -> &dqos_stats::LogHistogram,
) {
    println!("\n## {title} (CDF @ {:.0}% load, {unit})", load * 100.0);
    let mut dat = format!("# {title} (CDF @ {:.0}% load, {unit})\n", load * 100.0);
    for arch in Architecture::ALL {
        let hist = hist_of(&point(sweep, arch, load).2);
        let cdf = hist.cdf();
        println!("# {}", arch.label());
        dat.push_str(&format!("# {}\n", arch.label()));
        // Thin the printed curve to ~`points` rows; the file keeps all.
        let step = (cdf.len() / points.max(1)).max(1);
        for (i, (v, f)) in cdf.iter().enumerate() {
            if i % step == 0 || i + 1 == cdf.len() {
                println!("{:>12.3} {:>9.6}", *v as f64 / unit_div, f);
            }
            dat.push_str(&format!("{:.4} {:.6}\n", *v as f64 / unit_div, f));
        }
        dat.push_str("\n\n"); // gnuplot block separator
    }
    write_figure_file(&format!("{title} cdf"), &dat);
}

/// Dependency-free timing harness for the micro-benches.
///
/// Each measurement runs the workload once to warm caches, then `runs`
/// timed repetitions, and prints the *median* per-element time (robust
/// to scheduler noise without criterion's machinery) with the fastest
/// and slowest repetition beside it as the spread. Nothing is recorded:
/// perfbench (`perfbench/run.py`) is the repository's performance
/// record.
pub mod harness {
    use std::hint::black_box;
    use std::time::Instant;

    /// Time `f`, which processes `elements` items per call, and print
    /// one `name median [min..max] rate` row.
    pub fn measure<R>(name: &str, elements: u64, runs: usize, mut f: impl FnMut() -> R) {
        black_box(f()); // warm-up
        let mut samples: Vec<f64> = (0..runs.max(1))
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_nanos() as f64 / elements.max(1) as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        println!(
            "{:<40} {:>10.1} ns/elem [{:.1}..{:.1}] {:>14.0} elem/s",
            name,
            median,
            samples[0],
            samples[samples.len() - 1],
            1e9 / median
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Not setting variables in tests (process-global); just check the
        // default constructor path works when vars are absent.
        let env = BenchEnv::from_env();
        assert!(env.hosts >= 8);
        assert!(!env.loads.is_empty());
        assert!(env.max_load() <= 1.0);
    }

    #[test]
    fn config_reflects_env() {
        let env = BenchEnv { hosts: 24, measure_ms: 7, warmup_ms: 13, loads: vec![0.5], seed: 9 };
        let cfg = env.config(Architecture::Ideal, 0.5);
        assert_eq!(cfg.topology.n_hosts(), 24);
        assert_eq!(cfg.measure, dqos_sim_core::SimDuration::from_ms(7));
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn parallel_sweep_matches_per_point_runs() {
        let env =
            BenchEnv { hosts: 16, measure_ms: 1, warmup_ms: 1, loads: vec![0.2, 0.6], seed: 3 };
        let sweep = run_sweep(&env);
        let order: Vec<_> = sweep.iter().map(|(a, l, _, _)| (*a, *l)).collect();
        let expected: Vec<_> = Architecture::ALL
            .iter()
            .flat_map(|&a| env.loads.iter().map(move |&l| (a, l)))
            .collect();
        assert_eq!(order, expected, "architecture-major, loads as given");
        for (arch, load, report, _) in &sweep {
            let (serial, _) = run_one(env.config(*arch, *load));
            assert_eq!(report.to_json(), serial.to_json(), "{} @ {load}", arch.label());
        }
    }
}
