//! `TraceCollector` and the exporters: JSONL, Chrome `trace_event` JSON,
//! and a per-query virtual-time flame view.
//!
//! The collector is the canonical [`TraceSink`]: it appends every
//! [`TraceEvent`] to a vector in emission order. Because events are emitted
//! at completion time by deterministic code driven by a deterministic
//! virtual clock, two identical seeded runs produce byte-identical exports
//! (pinned by `sqo-sim`'s `obs_smoke` tests).
//!
//! ## Chrome `trace_event`
//!
//! [`TraceCollector::to_chrome_trace`] emits the JSON object format
//! loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`:
//!
//! * process 1 `peers` — one thread per peer: `wait`/service/`scan` spans
//!   show each peer's serial-queue occupancy (`busy_until`) on the
//!   virtual-time axis;
//! * process 2 `queries` — one thread per in-flight query: the query span,
//!   its operator/stage and `step` spans, message instants, and the AIMD
//!   `join_window` counter;
//! * process 3 `control` — run-level instants: `fault`, `fault-clear`,
//!   `repair` and `slo_burn` (`docs/TRACING.md`, "Metric names").
//!
//! Timestamps are virtual microseconds, which is exactly the unit the
//! format expects.

use crate::json::write_json_string;
use sqo_overlay::{SharedTraceSink, TraceEvent, TraceSink, TraceTrack, TraceValue};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// An in-memory trace sink recording events in emission order.
#[derive(Debug, Default)]
pub struct TraceCollector {
    events: Vec<TraceEvent>,
}

/// A sink that clones every event to several downstream sinks, in order —
/// e.g. a [`TraceCollector`] (raw stream) plus a
/// [`BlameProfiler`](crate::BlameProfiler) (attribution) on one network.
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<SharedTraceSink>,
}

impl FanoutSink {
    pub fn new(sinks: Vec<SharedTraceSink>) -> Self {
        Self { sinks }
    }

    /// A shared handle ready for `Network::set_trace_sink`.
    pub fn shared(sinks: Vec<SharedTraceSink>) -> SharedTraceSink {
        Rc::new(RefCell::new(Self::new(sinks)))
    }
}

impl TraceSink for FanoutSink {
    fn record(&mut self, ev: TraceEvent) {
        for s in &self.sinks {
            s.borrow_mut().record(ev.clone());
        }
    }
}

impl TraceSink for TraceCollector {
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

impl TraceCollector {
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared handle ready for
    /// [`Network::set_trace_sink`](sqo_overlay::Network::set_trace_sink).
    /// Keep a clone to read the events back after the run.
    pub fn shared() -> Rc<RefCell<TraceCollector>> {
        Rc::new(RefCell::new(TraceCollector::new()))
    }

    /// Upcast a collector handle to the sink type the network takes.
    pub fn as_sink(this: &Rc<RefCell<TraceCollector>>) -> SharedTraceSink {
        this.clone()
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Distinct query-track ids, in order of first appearance.
    pub fn query_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        for ev in &self.events {
            if let TraceTrack::Query(q) = ev.track {
                if !ids.contains(&q) {
                    ids.push(q);
                }
            }
        }
        ids
    }

    /// One JSON object per line, in emission order. Deterministic for a
    /// seeded run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            write_jsonl_event(&mut out, ev);
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON (object format) — see the module docs.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        // Metadata first: process names, then one thread name per distinct
        // track in order of first appearance.
        for (pid, name) in [(1u64, "peers"), (2, "queries"), (3, "control")] {
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        let mut seen_tracks: Vec<TraceTrack> = Vec::new();
        for ev in &self.events {
            if seen_tracks.contains(&ev.track) {
                continue;
            }
            seen_tracks.push(ev.track);
            let (pid, tid) = track_ids(ev.track);
            let label = match ev.track {
                TraceTrack::Peer(p) => format!("peer {}", p.index()),
                TraceTrack::Query(q) => format!("query {q}"),
                TraceTrack::Control => "control".to_string(),
            };
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{label}\"}}}}"
            );
        }
        for ev in &self.events {
            push_sep(&mut out, &mut first);
            write_chrome_event(&mut out, ev);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// A text flame view of one query's spans on the virtual-time axis:
    /// spans nest by containment, instants print as leaf markers.
    pub fn flame(&self, query: u64) -> String {
        let track = TraceTrack::Query(query);
        let mut evs: Vec<&TraceEvent> = self.events.iter().filter(|e| e.track == track).collect();
        // Sort by start; wider spans first at equal starts so parents
        // precede their children on the stack.
        evs.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us.unwrap_or(0))));
        let mut out = format!("flame: query {query} (virtual us)\n");
        let mut stack: Vec<u64> = Vec::new(); // open span end times
        for ev in evs {
            let end = ev.ts_us + ev.dur_us.unwrap_or(0);
            while stack.last().is_some_and(|&open_end| open_end <= ev.ts_us) {
                stack.pop();
            }
            let indent = "  ".repeat(stack.len());
            match ev.dur_us {
                Some(_) => {
                    let _ = write!(out, "{indent}{} [{}..{}]", ev.name, ev.ts_us, end);
                    write_flame_args(&mut out, ev);
                    out.push('\n');
                    stack.push(end);
                }
                None if ev.cat == "counter" => {
                    let _ = write!(out, "{indent}~ {}", ev.name);
                    write_flame_args(&mut out, ev);
                    let _ = write!(out, " @{}", ev.ts_us);
                    out.push('\n');
                }
                None => {
                    let _ = write!(out, "{indent}· {}", ev.name);
                    write_flame_args(&mut out, ev);
                    let _ = write!(out, " @{}", ev.ts_us);
                    out.push('\n');
                }
            }
        }
        out
    }
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// (pid, tid) of a track in the Chrome export.
fn track_ids(track: TraceTrack) -> (u64, u64) {
    match track {
        TraceTrack::Peer(p) => (1, p.index() as u64),
        TraceTrack::Query(q) => (2, q),
        TraceTrack::Control => (3, 0),
    }
}

fn write_args_object(out: &mut String, args: &[(&'static str, TraceValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        match v {
            TraceValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            TraceValue::Str(s) => write_json_string(s, out),
        }
    }
    out.push('}');
}

fn write_jsonl_event(out: &mut String, ev: &TraceEvent) {
    let _ = write!(out, "{{\"ts_us\":{}", ev.ts_us);
    if let Some(d) = ev.dur_us {
        let _ = write!(out, ",\"dur_us\":{d}");
    }
    let track = match ev.track {
        TraceTrack::Peer(p) => format!("peer:{}", p.index()),
        TraceTrack::Query(q) => format!("query:{q}"),
        TraceTrack::Control => "control".to_string(),
    };
    let _ = write!(out, ",\"track\":\"{track}\",\"name\":\"{}\",\"cat\":\"{}\"", ev.name, ev.cat);
    if !ev.args.is_empty() {
        out.push_str(",\"args\":");
        write_args_object(out, &ev.args);
    }
    out.push('}');
}

fn write_chrome_event(out: &mut String, ev: &TraceEvent) {
    let (pid, tid) = track_ids(ev.track);
    let ph = match (ev.dur_us, ev.cat) {
        (Some(_), _) => "X",
        (None, "counter") => "C",
        (None, _) => "i",
    };
    let _ = write!(
        out,
        "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\"cat\":\"{}\"",
        ev.ts_us, ev.name, ev.cat
    );
    if let Some(d) = ev.dur_us {
        let _ = write!(out, ",\"dur\":{d}");
    }
    if ph == "i" {
        // Thread-scoped instant.
        out.push_str(",\"s\":\"t\"");
    }
    if !ev.args.is_empty() {
        out.push_str(",\"args\":");
        write_args_object(out, &ev.args);
    }
    out.push('}');
}

fn write_flame_args(out: &mut String, ev: &TraceEvent) {
    for (k, v) in &ev.args {
        match v {
            TraceValue::U64(n) => {
                let _ = write!(out, " {k}={n}");
            }
            TraceValue::Str(s) => {
                let _ = write!(out, " {k}={s}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use sqo_overlay::PeerId;

    fn sample() -> TraceCollector {
        let mut c = TraceCollector::new();
        c.record(TraceEvent::span(100, 60, TraceTrack::Peer(PeerId(3)), "route", "net"));
        c.record(
            TraceEvent::instant(160, TraceTrack::Query(1), "route", "msg")
                .arg("from", 0usize)
                .arg("to", 3usize)
                .arg("bytes", 48usize),
        );
        c.record(TraceEvent::counter(200, TraceTrack::Query(1), "join_window", 4));
        c.record(TraceEvent::span(0, 500, TraceTrack::Query(1), "query", "query"));
        c.record(TraceEvent::instant(250, TraceTrack::Control, "churn", "run"));
        c
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let c = sample();
        let jsonl = c.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        for line in jsonl.lines() {
            validate_json(line).unwrap();
        }
        assert!(jsonl.contains("\"track\":\"peer:3\""));
        assert!(jsonl.contains("\"track\":\"query:1\""));
    }

    #[test]
    fn chrome_trace_is_valid_and_carries_tracks() {
        let c = sample();
        let json = c.to_chrome_trace();
        validate_json(&json).unwrap();
        assert!(json.contains("\"name\":\"thread_name\",\"args\":{\"name\":\"peer 3\"}"));
        assert!(json.contains("\"name\":\"thread_name\",\"args\":{\"name\":\"query 1\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn flame_nests_spans_by_containment() {
        let mut c = TraceCollector::new();
        c.record(TraceEvent::span(0, 1000, TraceTrack::Query(7), "query", "query"));
        c.record(TraceEvent::span(100, 200, TraceTrack::Query(7), "step", "exec"));
        c.record(TraceEvent::instant(150, TraceTrack::Query(7), "route", "msg"));
        c.record(TraceEvent::span(400, 100, TraceTrack::Query(7), "step", "exec"));
        let flame = c.flame(7);
        let lines: Vec<&str> = flame.lines().collect();
        assert_eq!(lines[1], "query [0..1000]");
        assert_eq!(lines[2], "  step [100..300]");
        assert_eq!(lines[3], "    · route @150");
        assert_eq!(lines[4], "  step [400..500]");
    }

    #[test]
    fn query_ids_in_first_appearance_order() {
        let mut c = TraceCollector::new();
        c.record(TraceEvent::instant(5, TraceTrack::Query(2), "route", "msg"));
        c.record(TraceEvent::instant(6, TraceTrack::Query(1), "route", "msg"));
        c.record(TraceEvent::instant(7, TraceTrack::Query(2), "route", "msg"));
        assert_eq!(c.query_ids(), vec![2, 1]);
    }
}
