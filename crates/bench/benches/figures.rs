//! **Figures 2, 3 and 4** — the paper's one workload (every architecture
//! at every load) reported three ways. The sweep runs once; each figure
//! is a view of the same reports.
//!
//! * **Figure 2**, control traffic: (a) average latency vs injected
//!   load, (b) throughput vs load, (c) latency CDF at the highest load,
//!   plus the §5 headline ratios (Simple ≈ +25 %, Advanced ≈ +5 %
//!   average latency vs Ideal) and the order-error counts.
//! * **Figure 3**, multimedia traffic: (a) average *frame* latency vs
//!   load (the EDF architectures plateau at the configured 10 ms
//!   target), (b) frame-latency CDF at the highest load (the paper
//!   reports > 99 % of frames within the target for the EDF designs),
//!   plus per-class jitter (the paper: Traditional "would introduce a lot
//!   of jitter").
//! * **Figure 4**, the two best-effort classes' throughput vs load. Under
//!   *Traditional 2 VCs* both classes share VC1 identically and get the
//!   same throughput; the EDF architectures differentiate them inside a
//!   single VC via the weighted aggregated flow records (Best-effort
//!   weighted 2:1 over Background here).
//!
//! Run: `cargo bench -p dqos-bench --bench figures`
//! (scaling knobs documented in `dqos_bench`).

use dqos_bench::{
    point, print_cdf, print_series, run_sweep, throughput_gbps, BenchEnv, SweepPoint,
};
use dqos_core::Architecture;
use dqos_stats::{ClassStats, Report};

fn class<'r>(r: &'r Report, name: &str) -> &'r ClassStats {
    r.class(name).expect("every report carries the four Table-1 classes")
}

fn main() {
    let env = BenchEnv::from_env();
    let sweep = run_sweep(&env);
    figure2(&env, &sweep);
    figure3(&env, &sweep);
    figure4(&env, &sweep);
}

fn figure2(env: &BenchEnv, sweep: &[SweepPoint]) {
    println!(
        "=== Figure 2: Control traffic ({} hosts, {} ms window) ===",
        env.hosts, env.measure_ms
    );
    print_series(
        "Figure 2a: Control average packet latency vs load",
        "us",
        sweep,
        &env.loads,
        |r| class(r, "Control").packet_latency.mean() / 1e3,
    );
    print_series("Figure 2a': Control p99 packet latency vs load", "us", sweep, &env.loads, |r| {
        class(r, "Control").packet_latency.quantile(0.99) as f64 / 1e3
    });
    print_series("Figure 2b: Control throughput vs load", "Gb/s", sweep, &env.loads, |r| {
        throughput_gbps(r, "Control")
    });
    print_cdf("Figure 2c: Control latency", sweep, env.max_load(), 1e3, "us", 24, |r| {
        &class(r, "Control").packet_latency
    });

    // §5 headline: latency penalty of the feasible designs vs Ideal.
    let mean_at = |arch: Architecture| {
        class(&point(sweep, arch, env.max_load()).2, "Control").packet_latency.mean()
    };
    let ideal = mean_at(Architecture::Ideal);
    println!(
        "\n## Headline ratios @ {:.0}% load (paper: Simple ~ +25%, Advanced ~ +5%)",
        env.max_load() * 100.0
    );
    for arch in [Architecture::Simple2Vc, Architecture::Advanced2Vc, Architecture::Traditional2Vc] {
        let m = mean_at(arch);
        println!(
            "{:<18} avg latency {:>9.2} us  ({:+.1}% vs Ideal)",
            arch.label(),
            m / 1e3,
            (m / ideal - 1.0) * 100.0
        );
    }

    // Order errors (§3.4): served while a smaller deadline waited in the
    // same buffer. Ideal must be zero; Advanced well below Simple.
    println!("\n## Order errors @ {:.0}% load", env.max_load() * 100.0);
    for arch in Architecture::ALL {
        let s = &point(sweep, arch, env.max_load()).3;
        println!(
            "{:<18} {:>10} order errors / {:>10} delivered packets",
            arch.label(),
            s.order_errors,
            s.delivered_packets
        );
    }
}

fn figure3(env: &BenchEnv, sweep: &[SweepPoint]) {
    println!(
        "=== Figure 3: Multimedia (video) traffic ({} hosts, {} ms window) ===",
        env.hosts, env.measure_ms
    );
    print_series("Figure 3a: video average frame latency vs load", "ms", sweep, &env.loads, |r| {
        class(r, "Multimedia").message_latency.mean() / 1e6
    });
    print_series("Figure 3a': video p99 frame latency vs load", "ms", sweep, &env.loads, |r| {
        class(r, "Multimedia").message_latency.quantile(0.99) as f64 / 1e6
    });
    print_series("Figure 3b: video throughput vs load", "Gb/s", sweep, &env.loads, |r| {
        throughput_gbps(r, "Multimedia")
    });
    print_series(
        "Video frame jitter (latency std-dev, pooled over streams) vs load",
        "us",
        sweep,
        &env.loads,
        |r| class(r, "Multimedia").jitter.std_dev() / 1e3,
    );
    // Per-stream |delta latency| needs at least two frames per stream in
    // the window: meaningful only when DQOS_MEASURE_MS >= ~2 frame
    // periods (80 ms).
    print_series(
        "Video frame jitter (per-stream mean |delta|; needs >=80 ms windows) vs load",
        "us",
        sweep,
        &env.loads,
        |r| class(r, "Multimedia").jitter.mean_abs_delta() / 1e3,
    );
    print_cdf("Figure 3c: video frame latency", sweep, env.max_load(), 1e6, "ms", 24, |r| {
        &class(r, "Multimedia").message_latency
    });

    // The paper's claim: for the EDF architectures the probability of a
    // frame latency <= ~the 10 ms target exceeds 99 %.
    println!(
        "\n## Fraction of frames within the 10 ms target (+5% slack) @ {:.0}% load",
        env.max_load() * 100.0
    );
    for arch in Architecture::ALL {
        let hist = &class(&point(sweep, arch, env.max_load()).2, "Multimedia").message_latency;
        println!(
            "{:<18} {:>7.3}% of {} frames",
            arch.label(),
            hist.fraction_at_or_below(10_500_000) * 100.0,
            hist.count()
        );
    }
}

fn figure4(env: &BenchEnv, sweep: &[SweepPoint]) {
    println!(
        "=== Figure 4: Best-effort traffic classes ({} hosts, {} ms window) ===",
        env.hosts, env.measure_ms
    );
    print_series("Figure 4a: Best-effort throughput vs load", "Gb/s", sweep, &env.loads, |r| {
        throughput_gbps(r, "Best-effort")
    });
    print_series("Figure 4b: Background throughput vs load", "Gb/s", sweep, &env.loads, |r| {
        throughput_gbps(r, "Background")
    });
    print_series("Best-effort : Background delivered ratio vs load", "x", sweep, &env.loads, |r| {
        let bg = throughput_gbps(r, "Background");
        if bg > 0.0 {
            throughput_gbps(r, "Best-effort") / bg
        } else {
            f64::NAN
        }
    });

    println!("\n## Differentiation @ {:.0}% load", env.max_load() * 100.0);
    println!("(paper: Traditional equal split; EDF splits by the 2:1 record weights)");
    for arch in Architecture::ALL {
        let r = &point(sweep, arch, env.max_load()).2;
        let be = throughput_gbps(r, "Best-effort");
        let bg = throughput_gbps(r, "Background");
        println!(
            "{:<18} BE {:>7.3} Gb/s  BG {:>7.3} Gb/s  ratio {:>5.2}",
            arch.label(),
            be,
            bg,
            be / bg
        );
    }
}
