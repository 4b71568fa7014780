//! Benchmark-side spans: wall time recorded around the benchmark's own
//! calls into public functions of the program — never inside it.
//!
//! Spans are kept in memory and written out only after the run. With the
//! tracer off (`Tracer::off`, every untraced run) `begin`/`end` are one
//! branch each and take no timestamp, which is what makes
//! `bench.trace_overhead_ratio` a measurement of the spans themselves.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed interval of benchmark wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Per-name aggregate of the span table.
#[derive(Debug, Clone, PartialEq)]
pub struct NameRow {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer { on: false, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn on() -> Self {
        Tracer { on: true, ..Tracer::off() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span. Spans nest strictly: the one closed must be the
    /// innermost open one.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.t0.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = now;
    }

    /// Self time per span, indexed by id: duration minus the part its
    /// children cover (children of one parent never overlap — the
    /// benchmark is single-threaded and spans nest strictly).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The per-layer table: one row per span name, in first-seen order.
    pub fn by_name(&self) -> Vec<NameRow> {
        let own = self.self_ns();
        let mut rows: Vec<NameRow> = Vec::new();
        for s in &self.spans {
            let row = match rows.iter_mut().find(|r| r.name == s.name) {
                Some(row) => row,
                None => {
                    rows.push(NameRow { name: s.name, count: 0, total_ns: 0, self_ns: 0 });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_ns += s.dur_ns();
            row.self_ns += own[s.id as usize];
        }
        rows
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum::<u64>() as f64 / 1e9
    }

    /// Durations (µs) of every span called `name`, in call order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
    }

    /// Share of the first span called `root` that its direct children
    /// account for; the rest is harness time between calls that no span
    /// names.
    pub fn coverage(&self, root: &str) -> f64 {
        let Some(r) = self.spans.iter().find(|s| s.name == root) else { return 0.0 };
        if r.dur_ns() == 0 {
            return 0.0;
        }
        1.0 - self.self_ns()[r.id as usize] as f64 / r.dur_ns() as f64
    }

    /// Chrome `trace_event` JSON (complete events, µs timestamps), loadable
    /// in Perfetto or `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                parent
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built table: root [0,100] ⊃ a [10,40] ⊃ b [20,30]; a [50,90].
    fn table() -> Tracer {
        let mut t = Tracer::on();
        let span = |id, parent, name, start_ns, end_ns| Span { id, parent, name, start_ns, end_ns };
        t.spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "b", 20, 30),
            span(3, Some(0), "a", 50, 90),
        ];
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = table();
        assert_eq!(t.self_ns(), vec![30, 20, 10, 40]);
        let rows = t.by_name();
        assert_eq!(rows[1], NameRow { name: "a", count: 2, total_ns: 70, self_ns: 60 });
        // Self times partition the root exactly.
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>(), 100);
        assert!((t.coverage("root") - 0.7).abs() < 1e-12);
        assert_eq!(t.durations_us("a"), vec![0.03, 0.04]);
    }

    #[test]
    fn off_records_nothing_and_on_nests() {
        let mut off = Tracer::off();
        let s = off.begin("x");
        off.end(s);
        assert!(off.spans.is_empty());

        let mut on = Tracer::on();
        let outer = on.begin("outer");
        let inner = on.begin("inner");
        on.end(inner);
        on.end(outer);
        assert_eq!(on.spans[1].parent, Some(0));
        assert!(on.spans[0].dur_ns() >= on.spans[1].dur_ns());
        assert!(on.to_chrome_trace().contains("\"name\":\"inner\""));
    }
}
