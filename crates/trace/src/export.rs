//! Trace exporters. Everything goes through `io::Write` — library code
//! never prints (enforced by the `no-print` tidy rule) — and every byte
//! written is a pure function of the event stream, so exported traces
//! can be compared byte-for-byte.

use crate::{Event, EventKind, Trace};
use std::io::{self, Write};

/// Event kind label used by both exporters.
fn kind_name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Stamped { .. } => "stamped",
        EventKind::Eligible => "eligible",
        EventKind::Injected => "injected",
        EventKind::HopEnqueue { .. } => "hop_enqueue",
        EventKind::HopArbitrate { .. } => "hop_arbitrate",
        EventKind::HopXbarDone => "hop_xbar_done",
        EventKind::HopTxStart => "hop_tx_start",
        EventKind::Delivered => "delivered",
        EventKind::DeliveredCorrupt => "delivered_corrupt",
        EventKind::DroppedWire => "dropped_wire",
        EventKind::Sample { .. } => "sample",
    }
}

/// Write the kind-specific JSON fields (shared by both exporters).
fn write_kind_fields<W: Write>(w: &mut W, kind: &EventKind) -> io::Result<()> {
    match kind {
        EventKind::Stamped { class, len, deadline } => write!(
            w,
            r#","class":{},"len":{},"deadline":{}"#,
            class,
            len,
            deadline.as_ns()
        ),
        EventKind::HopEnqueue { vc } => write!(w, r#","vc":{vc}"#),
        EventKind::HopArbitrate { vc, take_over, fifo } => write!(
            w,
            r#","vc":{vc},"take_over":{take_over},"fifo":{fifo}"#
        ),
        EventKind::Sample { queued, credit0, credit1 } => write!(
            w,
            r#","queued":{queued},"credit0":{credit0},"credit1":{credit1}"#
        ),
        _ => Ok(()),
    }
}

/// JSONL: one self-describing JSON object per event, one per line.
pub fn write_jsonl<W: Write>(w: &mut W, events: &[Event]) -> io::Result<()> {
    for e in events {
        write!(
            w,
            r#"{{"at":{},"node":{},"pkt":{},"kind":"{}""#,
            e.at.as_ns(),
            e.node,
            e.pkt,
            kind_name(&e.kind)
        )?;
        write_kind_fields(w, &e.kind)?;
        writeln!(w, "}}")?;
    }
    Ok(())
}

/// JSONL bytes of a trace (convenience for byte-identity tests).
pub fn jsonl_bytes(trace: &Trace) -> Vec<u8> {
    let mut v = Vec::new();
    // Writing into a Vec<u8> cannot fail.
    if write_jsonl(&mut v, &trace.events).is_err() {
        v.clear();
    }
    v
}

/// Microseconds with ns precision, formatted without going through
/// floating point (Chrome's `ts` field is in µs).
fn write_us<W: Write>(w: &mut W, ns: u64) -> io::Result<()> {
    write!(w, "{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto).
///
/// Lifecycle events become instant events (`ph:"i"`) with `pid` = node
/// and `tid` = packet id; [`EventKind::Sample`]s become counter tracks
/// (`ph:"C"`) per node, charting queue occupancy and per-VC credit.
pub fn write_chrome_trace<W: Write>(w: &mut W, events: &[Event]) -> io::Result<()> {
    write!(w, r#"{{"traceEvents":["#)?;
    let mut first = true;
    for e in events {
        if !first {
            write!(w, ",")?;
        }
        first = false;
        match e.kind {
            EventKind::Sample { queued, credit0, credit1 } => {
                write!(w, r#"{{"name":"node{}","ph":"C","ts":"#, e.node)?;
                write_us(w, e.at.as_ns())?;
                write!(
                    w,
                    r#","pid":{},"args":{{"queued":{},"credit0":{},"credit1":{}}}}}"#,
                    e.node, queued, credit0, credit1
                )?;
            }
            kind => {
                write!(w, r#"{{"name":"{}","ph":"i","s":"t","ts":"#, kind_name(&kind))?;
                write_us(w, e.at.as_ns())?;
                write!(w, r#","pid":{},"tid":{},"args":{{"pkt":{}"#, e.node, e.pkt, e.pkt)?;
                write_kind_fields(w, &kind)?;
                write!(w, "}}}}")?;
            }
        }
    }
    writeln!(w, r#"],"displayTimeUnit":"ns"}}"#)
}

/// Chrome trace bytes of a trace.
pub fn chrome_bytes(trace: &Trace) -> Vec<u8> {
    let mut v = Vec::new();
    // Writing into a Vec<u8> cannot fail.
    if write_chrome_trace(&mut v, &trace.events).is_err() {
        v.clear();
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqos_sim_core::SimTime;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                at: SimTime::from_ns(1500),
                node: 0,
                pkt: 7,
                kind: EventKind::Stamped {
                    class: 1,
                    len: 2048,
                    deadline: SimTime::from_ns(40_000),
                },
            },
            Event {
                at: SimTime::from_ns(2048),
                node: 4,
                pkt: 7,
                kind: EventKind::HopArbitrate { vc: 0, take_over: true, fifo: false },
            },
            Event {
                at: SimTime::from_ns(3000),
                node: 4,
                pkt: 0,
                kind: EventKind::Sample { queued: 3, credit0: 16, credit1: 9 },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut out = Vec::new();
        write_jsonl(&mut out, &sample_events()).expect("vec write");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            r#"{"at":1500,"node":0,"pkt":7,"kind":"stamped","class":1,"len":2048,"deadline":40000}"#
        );
        assert_eq!(
            lines[1],
            r#"{"at":2048,"node":4,"pkt":7,"kind":"hop_arbitrate","vc":0,"take_over":true,"fifo":false}"#
        );
        assert_eq!(
            lines[2],
            r#"{"at":3000,"node":4,"pkt":0,"kind":"sample","queued":3,"credit0":16,"credit1":9}"#
        );
    }

    #[test]
    fn chrome_trace_has_instants_and_counters() {
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &sample_events()).expect("vec write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with(r#"{"traceEvents":["#));
        assert!(text.contains(r#""name":"stamped","ph":"i","s":"t","ts":1.500"#));
        assert!(text.contains(r#""name":"node4","ph":"C","ts":3.000"#));
        assert!(text.trim_end().ends_with(r#"],"displayTimeUnit":"ns"}"#));
    }

    #[test]
    fn exports_are_deterministic_functions_of_the_stream() {
        let evs = sample_events();
        let t = Trace { events: evs, recorded: 3, dropped: 0 };
        assert_eq!(jsonl_bytes(&t), jsonl_bytes(&t.clone()));
        assert_eq!(chrome_bytes(&t), chrome_bytes(&t.clone()));
    }
}
