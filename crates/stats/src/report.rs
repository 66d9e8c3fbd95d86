//! Per-class aggregation and rendering.
//!
//! [`ClassStats`] collects everything §5 reports for one traffic class;
//! [`Report`] groups the four classes of one simulation run and renders
//! the rows the figure benches print (plain text aligned columns, or
//! JSON via the in-tree [`crate::json`] module for post-processing).

use crate::hist::LogHistogram;
use crate::jitter::JitterTracker;
use crate::json::Json;
use crate::meter::ThroughputMeter;
use dqos_sim_core::SimTime;
use std::fmt::Write as _;

/// Everything measured for one traffic class during one run.
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    /// Class label ("Control", "Multimedia", ...).
    pub name: String,
    /// Per-packet network latency histogram (inject → deliver), ns.
    pub packet_latency: LogHistogram,
    /// Per-message latency histogram (message handed to NIC → last part
    /// delivered), ns. For multimedia this is the *frame* latency that
    /// Figure 3 plots.
    pub message_latency: LogHistogram,
    /// Delivered-traffic meter.
    pub delivered: ThroughputMeter,
    /// Offered-traffic meter (what the generators produced).
    pub offered: ThroughputMeter,
    /// Message-level jitter aggregate.
    pub jitter: JitterTracker,
}

impl ClassStats {
    /// A fresh, named stats block.
    pub fn new(name: impl Into<String>) -> Self {
        ClassStats { name: name.into(), ..Default::default() }
    }

    /// Serialise to a JSON tree.
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("packet_latency", self.packet_latency.to_json()),
            ("message_latency", self.message_latency.to_json()),
            ("delivered", self.delivered.to_json()),
            ("offered", self.offered.to_json()),
            ("jitter", self.jitter.to_json()),
        ])
    }

    /// Rebuild from [`ClassStats::to_json_value`] output.
    pub fn from_json_value(j: &Json) -> Option<Self> {
        Some(ClassStats {
            name: j.get("name")?.as_str()?.to_string(),
            packet_latency: LogHistogram::from_json(j.get("packet_latency")?)?,
            message_latency: LogHistogram::from_json(j.get("message_latency")?)?,
            delivered: ThroughputMeter::from_json(j.get("delivered")?)?,
            offered: ThroughputMeter::from_json(j.get("offered")?)?,
            jitter: JitterTracker::from_json(j.get("jitter")?)?,
        })
    }
}

/// Per-class loss accounting for a fault-injected run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultClassLoss {
    /// Class label ("Control", "Multimedia", ...).
    pub class: String,
    /// Packets dropped on a failed or lossy link.
    pub dropped: u64,
    /// Packets delivered with a corrupted payload (discarded at the
    /// destination, like a CRC failure).
    pub corrupted: u64,
    /// Regulated packets delivered after their deadline (only counted
    /// for deadline-scheduled architectures).
    pub deadline_miss: u64,
}

impl FaultClassLoss {
    fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("class", Json::Str(self.class.clone())),
            ("dropped", Json::Int(self.dropped as i128)),
            ("corrupted", Json::Int(self.corrupted as i128)),
            ("deadline_miss", Json::Int(self.deadline_miss as i128)),
        ])
    }

    fn from_json_value(j: &Json) -> Option<Self> {
        Some(FaultClassLoss {
            class: j.get("class")?.as_str()?.to_string(),
            dropped: j.get("dropped")?.as_u64()?,
            corrupted: j.get("corrupted")?.as_u64()?,
            deadline_miss: j.get("deadline_miss")?.as_u64()?,
        })
    }
}

/// Fault-injection outcome attached to a run report: what was lost and
/// how admission reacted. Present only when a fault plan was active.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Per-class losses, Table-1 order (classes with no losses included).
    pub classes: Vec<FaultClassLoss>,
    /// Flow-control credits destroyed in flight.
    pub credits_lost: u64,
    /// Regulated flows successfully moved to a surviving path.
    pub reroutes: u32,
    /// Regulated flows that no longer fit anywhere and lost their
    /// reservation (they keep flowing unregulated).
    pub reroute_rejections: u32,
    /// Previously rejected flows re-admitted after a repair.
    pub readmissions: u32,
}

impl FaultReport {
    /// Look up a class block by name.
    pub fn class(&self, name: &str) -> Option<&FaultClassLoss> {
        self.classes.iter().find(|c| c.class == name)
    }

    /// Total packets dropped across classes.
    pub fn total_dropped(&self) -> u64 {
        self.classes.iter().map(|c| c.dropped).sum()
    }

    /// Total packets corrupted across classes.
    pub fn total_corrupted(&self) -> u64 {
        self.classes.iter().map(|c| c.corrupted).sum()
    }

    /// Serialise to a JSON tree.
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("classes", Json::Arr(self.classes.iter().map(FaultClassLoss::to_json_value).collect())),
            ("credits_lost", Json::Int(self.credits_lost as i128)),
            ("reroutes", Json::Int(self.reroutes as i128)),
            ("reroute_rejections", Json::Int(self.reroute_rejections as i128)),
            ("readmissions", Json::Int(self.readmissions as i128)),
        ])
    }

    /// Rebuild from [`FaultReport::to_json_value`] output.
    pub fn from_json_value(j: &Json) -> Option<Self> {
        Some(FaultReport {
            classes: j
                .get("classes")?
                .as_arr()?
                .iter()
                .map(FaultClassLoss::from_json_value)
                .collect::<Option<Vec<_>>>()?,
            credits_lost: j.get("credits_lost")?.as_u64()?,
            reroutes: j.get("reroutes")?.as_u64()? as u32,
            reroute_rejections: j.get("reroute_rejections")?.as_u64()? as u32,
            readmissions: j.get("readmissions")?.as_u64()? as u32,
        })
    }
}

/// Ticks attributed to one pipeline stage (flight-recorder rollup).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageSlack {
    /// Stage label ("pacing", "vc_arbitration", ...). Labels come from
    /// the tracing layer; this crate treats them as opaque.
    pub stage: String,
    /// Nanoseconds spent in the stage, summed over missed packets.
    pub ns: u64,
}

/// Per-class slack attribution from a traced run: where the lost slack
/// of deadline-missing packets went. Stage sums cover missed packets
/// only, and satisfy `Σ stages - initial_slack_ns == miss_ns` exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceClassSlack {
    /// Class label ("Control", "Multimedia", ...).
    pub class: String,
    /// Packets of this class delivered intact (on time or late).
    pub delivered: u64,
    /// Delivered past their deadline (with a complete event journey).
    pub missed: u64,
    /// Σ (delivered − deadline) over missed packets, ns.
    pub miss_ns: u64,
    /// Σ (deadline − stamped) over missed packets, ns (may be negative
    /// under extreme clock skew).
    pub initial_slack_ns: i64,
    /// Per-stage attribution, fixed stage order.
    pub stages: Vec<StageSlack>,
}

impl TraceClassSlack {
    /// Total attributed nanoseconds across stages.
    pub fn stage_total_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.ns).sum()
    }
}

/// Flight-recorder outcome attached to a run report. Present only when
/// tracing was enabled; the simulation results themselves are identical
/// with or without it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Events kept in the merged trace.
    pub events: u64,
    /// Events recorded but evicted by the ring capacity.
    pub dropped_events: u64,
    /// Deadline-missing deliveries whose journey was truncated by the
    /// ring (counted, not attributed).
    pub incomplete: u64,
    /// Per-class slack attribution, Table-1 order.
    pub classes: Vec<TraceClassSlack>,
}

impl TraceReport {
    /// Look up a class block by name.
    pub fn class(&self, name: &str) -> Option<&TraceClassSlack> {
        self.classes.iter().find(|c| c.class == name)
    }

    /// Total missed packets attributed across classes.
    pub fn total_missed(&self) -> u64 {
        self.classes.iter().map(|c| c.missed).sum()
    }

    /// Serialise to a JSON tree.
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("events", Json::Int(self.events as i128)),
            ("dropped_events", Json::Int(self.dropped_events as i128)),
            ("incomplete", Json::Int(self.incomplete as i128)),
            (
                "classes",
                Json::Arr(
                    self.classes
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("class", Json::Str(c.class.clone())),
                                ("delivered", Json::Int(c.delivered as i128)),
                                ("missed", Json::Int(c.missed as i128)),
                                ("miss_ns", Json::Int(c.miss_ns as i128)),
                                ("initial_slack_ns", Json::Int(c.initial_slack_ns as i128)),
                                (
                                    "stages",
                                    Json::Arr(
                                        c.stages
                                            .iter()
                                            .map(|s| {
                                                Json::obj(vec![
                                                    ("stage", Json::Str(s.stage.clone())),
                                                    ("ns", Json::Int(s.ns as i128)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuild from [`TraceReport::to_json_value`] output.
    pub fn from_json_value(j: &Json) -> Option<Self> {
        Some(TraceReport {
            events: j.get("events")?.as_u64()?,
            dropped_events: j.get("dropped_events")?.as_u64()?,
            incomplete: j.get("incomplete")?.as_u64()?,
            classes: j
                .get("classes")?
                .as_arr()?
                .iter()
                .map(|c| {
                    Some(TraceClassSlack {
                        class: c.get("class")?.as_str()?.to_string(),
                        delivered: c.get("delivered")?.as_u64()?,
                        missed: c.get("missed")?.as_u64()?,
                        miss_ns: c.get("miss_ns")?.as_u64()?,
                        initial_slack_ns: c.get("initial_slack_ns")?.as_i128()? as i64,
                        stages: c
                            .get("stages")?
                            .as_arr()?
                            .iter()
                            .map(|s| {
                                Some(StageSlack {
                                    stage: s.get("stage")?.as_str()?.to_string(),
                                    ns: s.get("ns")?.as_u64()?,
                                })
                            })
                            .collect::<Option<Vec<_>>>()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// One simulation run's results: the architecture, the load point, the
/// measurement window, and a stats block per class.
#[derive(Debug, Clone)]
pub struct Report {
    /// Architecture label (paper figure legend).
    pub architecture: String,
    /// Offered load as a fraction of link capacity (0.1 ..= 1.0).
    pub load: f64,
    /// Measurement window start.
    pub window_start: SimTime,
    /// Measurement window end.
    pub window_end: SimTime,
    /// Per-class statistics, Table-1 order.
    pub classes: Vec<ClassStats>,
    /// Fault-injection outcome; `None` for fault-free runs (the JSON
    /// rendering omits the key entirely, keeping fault-free output
    /// byte-identical to pre-fault builds).
    pub faults: Option<FaultReport>,
    /// Flight-recorder outcome; `None` for untraced runs (same key
    /// omission contract as [`Report::faults`], so untraced output is
    /// byte-identical to pre-trace builds).
    pub trace: Option<TraceReport>,
}

impl Report {
    /// Look up a class block by name.
    pub fn class(&self, name: &str) -> Option<&ClassStats> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Render an aligned text table, one row per class: throughput,
    /// mean/p99/max packet latency, mean message latency, jitter.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# {} @ load {:.0}%  (window {} .. {})",
            self.architecture,
            self.load * 100.0,
            self.window_start,
            self.window_end
        );
        let _ = writeln!(
            s,
            "{:<12} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "class", "thru Gb/s", "offer Gb/s", "pkt avg us", "pkt p99 us", "pkt max us", "msg avg ms", "jitter us"
        );
        for c in &self.classes {
            let thru = c.delivered.throughput(self.window_start, self.window_end);
            let offer = c.offered.throughput(self.window_start, self.window_end);
            let _ = writeln!(
                s,
                "{:<12} {:>10.3} {:>10.3} {:>12.2} {:>12.2} {:>12.2} {:>12.3} {:>12.2}",
                c.name,
                thru.as_gbps_f64(),
                offer.as_gbps_f64(),
                c.packet_latency.mean() / 1e3,
                c.packet_latency.quantile(0.99) as f64 / 1e3,
                c.packet_latency.max() as f64 / 1e3,
                c.message_latency.mean() / 1e6,
                c.jitter.mean_abs_delta() / 1e3,
            );
        }
        if let Some(f) = &self.faults {
            let _ = writeln!(
                s,
                "# faults: dropped {} corrupted {} credits_lost {} reroutes {} rejections {} readmissions {}",
                f.total_dropped(),
                f.total_corrupted(),
                f.credits_lost,
                f.reroutes,
                f.reroute_rejections,
                f.readmissions
            );
            for c in &f.classes {
                if c.dropped != 0 || c.corrupted != 0 || c.deadline_miss != 0 {
                    let _ = writeln!(
                        s,
                        "#   {:<12} dropped {:>8} corrupted {:>8} deadline_miss {:>8}",
                        c.class, c.dropped, c.corrupted, c.deadline_miss
                    );
                }
            }
        }
        if let Some(t) = &self.trace {
            let _ = writeln!(
                s,
                "# trace: events {} dropped {} incomplete {} missed {}",
                t.events,
                t.dropped_events,
                t.incomplete,
                t.total_missed()
            );
            for c in &t.classes {
                if c.missed == 0 {
                    continue;
                }
                let mut row = format!(
                    "#   {:<12} missed {:>8} miss_us {:>10.1}",
                    c.class,
                    c.missed,
                    c.miss_ns as f64 / 1e3
                );
                for st in &c.stages {
                    if st.ns != 0 {
                        let _ = write!(row, " {} {:.1}us", st.stage, st.ns as f64 / 1e3);
                    }
                }
                let _ = writeln!(s, "{row}");
            }
        }
        s
    }

    /// Serialise to pretty JSON (via the in-tree [`crate::json`] module;
    /// the offline build carries no serde).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// Serialise to a JSON tree.
    pub fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("architecture", Json::Str(self.architecture.clone())),
            ("load", Json::Float(self.load)),
            ("window_start_ns", Json::Int(self.window_start.as_ns() as i128)),
            ("window_end_ns", Json::Int(self.window_end.as_ns() as i128)),
            ("classes", Json::Arr(self.classes.iter().map(ClassStats::to_json_value).collect())),
        ];
        if let Some(f) = &self.faults {
            fields.push(("faults", f.to_json_value()));
        }
        if let Some(t) = &self.trace {
            fields.push(("trace", t.to_json_value()));
        }
        Json::obj(fields)
    }

    /// Parse a report previously rendered by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, String> {
        let j = Json::parse(text)?;
        Self::from_json_value(&j).ok_or_else(|| "malformed report document".to_string())
    }

    /// Rebuild from [`Report::to_json_value`] output.
    pub fn from_json_value(j: &Json) -> Option<Report> {
        Some(Report {
            architecture: j.get("architecture")?.as_str()?.to_string(),
            load: j.get("load")?.as_f64()?,
            window_start: SimTime::from_ns(j.get("window_start_ns")?.as_u64()?),
            window_end: SimTime::from_ns(j.get("window_end_ns")?.as_u64()?),
            classes: j
                .get("classes")?
                .as_arr()?
                .iter()
                .map(ClassStats::from_json_value)
                .collect::<Option<Vec<_>>>()?,
            faults: match j.get("faults") {
                Some(f) => Some(FaultReport::from_json_value(f)?),
                None => None,
            },
            trace: match j.get("trace") {
                Some(t) => Some(TraceReport::from_json_value(t)?),
                None => None,
            },
        })
    }
}

/// Render a CDF as two-column text (`value fraction`), the format of the
/// paper's CDF plots.
pub fn cdf_to_text(hist: &LogHistogram, unit_div: f64, unit: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# latency_{unit} cumulative_fraction");
    for (v, f) in hist.cdf() {
        let _ = writeln!(s, "{:.3} {:.6}", v as f64 / unit_div, f);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut control = ClassStats::new("Control");
        for i in 0..100u64 {
            control.packet_latency.record(5_000 + i * 10);
            control.delivered.record_packet(1024);
            control.offered.record_packet(1024);
        }
        let mut video = ClassStats::new("Multimedia");
        for _ in 0..10 {
            video.message_latency.record(10_000_000);
            video.jitter.record(10_000_000);
        }
        Report {
            architecture: "Advanced 2 VCs".into(),
            load: 1.0,
            window_start: SimTime::from_ms(10),
            window_end: SimTime::from_ms(20),
            classes: vec![control, video],
            faults: None,
            trace: None,
        }
    }

    #[test]
    fn class_lookup() {
        let r = sample_report();
        assert!(r.class("Control").is_some());
        assert!(r.class("Multimedia").is_some());
        assert!(r.class("Nope").is_none());
    }

    #[test]
    fn table_renders_all_classes() {
        let r = sample_report();
        let t = r.to_table();
        assert!(t.contains("Advanced 2 VCs"));
        assert!(t.contains("Control"));
        assert!(t.contains("Multimedia"));
        // 100 * 1024 B over 10 ms = 10.24 MB/s ≈ 0.082 Gb/s.
        assert!(t.contains("0.082"), "table was:\n{t}");
    }

    #[test]
    fn json_roundtrip() {
        let r = sample_report();
        let j = r.to_json();
        let back = Report::from_json(&j).unwrap();
        assert_eq!(back.architecture, r.architecture);
        assert_eq!(back.classes.len(), 2);
        assert_eq!(back.class("Control").unwrap().packet_latency.count(), 100);
        // The whole tree roundtrips, not just the spot-checked fields:
        // render → parse → render is a fixed point.
        assert_eq!(back.to_json(), j);
        // All measured quantities survive exactly.
        let (a, b) = (r.class("Multimedia").unwrap(), back.class("Multimedia").unwrap());
        assert_eq!(a.jitter.count(), b.jitter.count());
        assert_eq!(a.jitter.std_dev().to_bits(), b.jitter.std_dev().to_bits());
        assert_eq!(a.message_latency.quantile(0.5), b.message_latency.quantile(0.5));
    }

    #[test]
    fn faults_key_is_omitted_for_fault_free_runs() {
        let r = sample_report();
        assert!(!r.to_json().contains("faults"));
    }

    #[test]
    fn fault_report_roundtrips() {
        let mut r = sample_report();
        r.faults = Some(FaultReport {
            classes: vec![
                FaultClassLoss { class: "Control".into(), dropped: 3, corrupted: 0, deadline_miss: 0 },
                FaultClassLoss { class: "Multimedia".into(), dropped: 17, corrupted: 2, deadline_miss: 5 },
            ],
            credits_lost: 1,
            reroutes: 4,
            reroute_rejections: 2,
            readmissions: 4,
        });
        let j = r.to_json();
        assert!(j.contains("faults"));
        let back = Report::from_json(&j).unwrap();
        assert_eq!(back.faults, r.faults);
        assert_eq!(back.to_json(), j, "render → parse → render is a fixed point");
        let f = back.faults.unwrap();
        assert_eq!(f.total_dropped(), 20);
        assert_eq!(f.class("Multimedia").unwrap().deadline_miss, 5);
        // The table gains a faults footer.
        let mut r2 = sample_report();
        r2.faults = Some(f);
        assert!(r2.to_table().contains("# faults: dropped 20"));
    }

    #[test]
    fn trace_report_roundtrips_and_key_is_omitted_when_absent() {
        let r = sample_report();
        assert!(!r.to_json().contains("\"trace\""), "untraced runs omit the key");
        let mut traced = sample_report();
        traced.trace = Some(TraceReport {
            events: 1000,
            dropped_events: 24,
            incomplete: 1,
            classes: vec![TraceClassSlack {
                class: "Multimedia".into(),
                delivered: 10,
                missed: 2,
                miss_ns: 5_000,
                initial_slack_ns: 20_000,
                stages: vec![
                    StageSlack { stage: "pacing".into(), ns: 15_000 },
                    StageSlack { stage: "transit".into(), ns: 10_000 },
                ],
            }],
        });
        let j = traced.to_json();
        let back = Report::from_json(&j).unwrap();
        assert_eq!(back.trace, traced.trace);
        assert_eq!(back.to_json(), j, "render → parse → render is a fixed point");
        let t = back.trace.unwrap();
        assert_eq!(t.total_missed(), 2);
        let c = t.class("Multimedia").unwrap();
        // The exact attribution identity survives serialisation.
        assert_eq!(c.stage_total_ns() as i64 - c.initial_slack_ns, c.miss_ns as i64);
        // The table gains a trace footer with the stage breakdown.
        let table = traced.to_table();
        assert!(table.contains("# trace: events 1000"));
        assert!(table.contains("pacing"));
    }

    #[test]
    fn cdf_text_format() {
        let r = sample_report();
        let txt = cdf_to_text(&r.class("Control").unwrap().packet_latency, 1e3, "us");
        assert!(txt.starts_with("# latency_us"));
        let lines: Vec<_> = txt.lines().skip(1).collect();
        assert!(!lines.is_empty());
        // Final fraction reaches 1.
        assert!(lines.last().unwrap().ends_with("1.000000"));
    }
}
