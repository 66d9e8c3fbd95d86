//! The benchmark's own checks: shortened workloads are deterministic per
//! seed, differ across seeds, and print every metric `BENCHMARK.json`
//! lists, with its unit.
//!
//! Run: `cargo test --release --manifest-path perfbench/Cargo.toml`

use dqos_perfbench::{run, Budget, Outcome, Workload, END_TO_END, PER_LAYER};
use dqos_stats::Json;

const SHORT: Budget = Budget {
    seconds: 0.0,
    min_reps: 1,
    short: true,
};

fn short_run(w: Workload, seed: u64, trace: bool) -> Outcome {
    let out = run(w, seed, SHORT, trace);
    assert!(out.attempted >= 1, "{}: nothing attempted", w.name());
    assert_eq!(
        out.failed,
        0,
        "{} seed {seed}: failed operations\n{}",
        w.name(),
        out.report
    );
    out
}

/// The deterministic counts each workload must reproduce exactly.
fn identity(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::DqosdChurn => &[
            "control_digest",
            "requests_served",
            "requests_completed",
            "virtual_ns",
            "flows_live",
        ],
        _ => &[
            "events",
            "delivered_packets",
            "injected_packets",
            "report_digest",
        ],
    }
}

/// Of those, the counts another seed must change (every client of a
/// churn round completes all its requests whatever the seed).
fn seeded(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::DqosdChurn => &["control_digest", "virtual_ns"],
        _ => &["events", "delivered_packets", "report_digest"],
    }
}

fn counts(out: &Outcome, names: &[&str], w: Workload) -> Vec<u64> {
    names
        .iter()
        .map(|k| {
            out.count(k)
                .unwrap_or_else(|| panic!("{}: no count {k}", w.name()))
        })
        .collect()
}

#[test]
fn same_seed_same_counts_other_seed_other_counts() {
    for w in Workload::ALL {
        let (first, again) = (short_run(w, 7, false), short_run(w, 7, false));
        let a = counts(&first, identity(w), w);
        assert_eq!(
            a,
            counts(&again, identity(w), w),
            "{}: one seed, two runs, different counts",
            w.name()
        );
        assert!(a.iter().all(|&c| c > 0), "{}: a zero count {a:?}", w.name());
        let other = short_run(w, 8, false);
        for k in seeded(w) {
            assert_ne!(
                first.count(k),
                other.count(k),
                "{}: {k} did not change with the seed",
                w.name()
            );
        }
    }
}

#[test]
fn traced_run_walks_the_untraced_path() {
    for w in Workload::ALL {
        let plain = short_run(w, 3, false);
        let traced = short_run(w, 3, true);
        let key = identity(w)[0];
        assert_eq!(
            plain.count(key),
            traced.count(key),
            "{}: tracing changed {key}",
            w.name()
        );
    }
}

fn listed(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses");
    let end_to_end = listed(&doc, "end_to_end");
    let per_layer = listed(&doc, "per_layer");
    let own = |xs: &[(&str, &str)]| {
        xs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        end_to_end,
        own(END_TO_END),
        "end_to_end list and the binary disagree"
    );
    assert_eq!(
        per_layer,
        own(PER_LAYER),
        "per_layer list and the binary disagree"
    );

    let names: Vec<String> = listed_workloads(&doc);
    assert_eq!(
        names,
        Workload::ALL.map(|w| w.name().to_string()),
        "workload list and the binary disagree"
    );

    for w in Workload::ALL {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let out = short_run(w, 5, trace);
            let line = Json::parse(&out.result_line()).expect("result line is JSON");
            let metrics = line.get("metrics").expect("metrics object");
            for (name, unit) in expected.iter() {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{} trace={trace}: {name} missing", w.name()));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name} unit"
                );
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite(), "{name} = {v}");
                if !trace {
                    assert!(v > 0.0, "{} end-to-end {name} = {v}", w.name());
                }
            }
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        }
    }
}

fn listed_workloads(doc: &Json) -> Vec<String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect()
}
