//! The event-charging hook: virtual-time accounting for the simulator.
//!
//! The shared-memory [`Network`](crate::network::Network) counts messages
//! and bytes ([`crate::metrics::Metrics`]); it has no notion of *time*. An
//! [`EventSink`] installed on the network receives every simulated wire
//! interaction — routing hops, shower forwards, result transfers, local
//! scans — plus fork/join markers around parallel fan-outs, and turns them
//! into simulated wall-clock latency. The canonical implementation lives in
//! the `sqo-sim` crate (`NetSim`: pluggable latency models, message loss
//! with retry, per-peer serial service queues); the overlay only defines the
//! contract so that it does not depend on the simulator.
//!
//! ## Timing model
//!
//! The sink maintains a *frontier*: the virtual time at the point of the
//! query's control flow. Sequential steps ([`EventSink::deliver`],
//! [`EventSink::local_work`]) advance the frontier. Parallel fan-outs (the
//! shower phase of a retrieve, batched probes across partitions) are
//! bracketed by [`EventSink::fork`] / [`EventSink::join`], with
//! [`EventSink::branch`] separating the branches: every branch starts at
//! the fork's frontier and the join resumes at the **latest** branch
//! completion — critical-path accounting, not summed hop counts.

use crate::peer::PeerId;

/// What role a delivered message plays (mirrors the [`Metrics`] breakdown).
///
/// [`Metrics`]: crate::metrics::Metrics
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Algorithm-1 routing hop.
    Route,
    /// Intra-subtree shower forward.
    Forward,
    /// Result-bearing message (owner → initiator or delegation successor).
    Result,
}

impl MsgKind {
    /// Stable lower-case label, used as the trace-event name of the message.
    pub fn label(self) -> &'static str {
        match self {
            MsgKind::Route => "route",
            MsgKind::Forward => "forward",
            MsgKind::Result => "result",
        }
    }
}

/// Simulated-latency profile of one query (or an aggregate of queries).
///
/// All fields are microseconds of virtual time except the two counters.
/// For a single query `elapsed_us == end_us - start_us` is the critical
/// path; the per-category fields (`net_us`, `queue_us`, `service_us`) are
/// summed over *all* messages, so with parallel fan-out their total may
/// exceed the critical path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimLatency {
    /// Virtual time when the query began.
    pub start_us: u64,
    /// Virtual time when the last result reached the initiator.
    pub end_us: u64,
    /// Critical-path duration (for aggregates: summed durations).
    pub elapsed_us: u64,
    /// Link latency summed over all messages (loss timeouts included).
    pub net_us: u64,
    /// Time messages spent queued behind busy receivers.
    pub queue_us: u64,
    /// Receiver CPU occupancy (per-message + per-byte service, local scans).
    pub service_us: u64,
    /// Messages that passed through the sink.
    pub timed_messages: u64,
    /// Retransmissions caused by simulated message loss.
    pub retransmissions: u64,
    /// Critical-path share spent on link latency (blame decomposition).
    ///
    /// Unlike the summed `net_us`/`queue_us`/`service_us`, the four
    /// `crit_*` fields decompose the **frontier advance itself**: on the
    /// losing branches of a fan-out no frontier time accrues, so for a
    /// window with no mid-window clock rewind
    /// `crit_net + crit_queue + crit_service + crit_stall == elapsed_us`.
    pub crit_net_us: u64,
    /// Critical-path share spent queued behind busy receivers.
    pub crit_queue_us: u64,
    /// Critical-path share spent in receiver service / local scans.
    pub crit_service_us: u64,
    /// Critical-path share where the frontier was moved forward without a
    /// message or scan — waiting on the driver clock (join-window stalls,
    /// scheduling gaps between charged steps inside one window).
    pub crit_stall_us: u64,
}

impl SimLatency {
    /// True when nothing was recorded (the all-zero default).
    pub fn is_empty(&self) -> bool {
        self.elapsed_us == 0 && self.timed_messages == 0 && self.end_us == 0
    }

    /// Aggregate another profile: durations and counters add, the window
    /// becomes the envelope. For sequential sub-operations of one query the
    /// summed `elapsed_us` equals the end-to-end critical path.
    pub fn absorb(&mut self, other: &SimLatency) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = *other;
            return;
        }
        self.start_us = self.start_us.min(other.start_us);
        self.end_us = self.end_us.max(other.end_us);
        self.elapsed_us += other.elapsed_us;
        self.net_us += other.net_us;
        self.queue_us += other.queue_us;
        self.service_us += other.service_us;
        self.timed_messages += other.timed_messages;
        self.retransmissions += other.retransmissions;
        self.crit_net_us += other.crit_net_us;
        self.crit_queue_us += other.crit_queue_us;
        self.crit_service_us += other.crit_service_us;
        self.crit_stall_us += other.crit_stall_us;
    }
}

/// Receiver of simulated network events (see the module docs for the
/// timing model). Installed on a network via
/// [`Network::set_event_sink`](crate::network::Network::set_event_sink);
/// all methods are invoked by the overlay as queries execute.
pub trait EventSink {
    /// Open a query window at the current frontier.
    fn begin_query(&mut self);

    /// Close the query window and return its latency profile.
    fn end_query(&mut self) -> SimLatency;

    /// A message of `bytes` travels `from → to`; advances the frontier by
    /// link latency (plus loss retries) and the receiver's service time.
    /// `tracer` is the network's trace sink at the time of the call, which
    /// receives the receiver's per-peer spans.
    fn deliver(
        &mut self,
        from: PeerId,
        to: PeerId,
        bytes: usize,
        kind: MsgKind,
        tracer: Option<&SharedTraceSink>,
    );

    /// Local scan work at `peer` over `items` stored entries; occupies the
    /// peer and advances the frontier. `tracer` as for [`Self::deliver`].
    fn local_work(&mut self, peer: PeerId, items: u64, tracer: Option<&SharedTraceSink>);

    /// Open a parallel fan-out at the current frontier.
    fn fork(&mut self);

    /// Start the next branch of the innermost fork (rewinds the frontier to
    /// the fork point, remembering the previous branch's completion).
    fn branch(&mut self);

    /// Close the innermost fork: the frontier jumps to the latest branch
    /// completion.
    fn join(&mut self);

    /// Current frontier, in virtual microseconds.
    fn now_us(&self) -> u64;

    /// Set the frontier to `t_us` (a query arrival in an open-loop
    /// workload; may rewind relative to a previously simulated query, which
    /// is how concurrent queries overlap).
    fn reset_to_us(&mut self, t_us: u64);

    /// Receiver-side backlog of `peer`: the virtual time until which its
    /// serial service queue is occupied by already-charged messages. The
    /// overlay consults this for load-aware replica/reference selection
    /// (shortest-backlog routing). Sinks without per-peer queues report 0,
    /// which degrades the selection to uniform random.
    fn busy_until_us(&self, _peer: PeerId) -> u64 {
        0
    }

    /// Downcast hook for checkpointing: sinks whose internal state is
    /// capturable return `Some(self)` so callers can recover the concrete
    /// type (the simulator's `NetSim` does). The default `None` keeps
    /// custom sinks opt-in — a snapshot of a network carrying an opaque
    /// sink simply records no sink state.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Which timeline track a trace event renders on.
///
/// The exporters map tracks to Chrome `trace_event` threads: every peer is
/// one row (so `busy_until` occupancy and queueing render as per-peer
/// timelines), every in-flight query is one row (its operator/step spans and
/// message instants), and run-level events (`fault`, `fault-clear`,
/// `repair` and `slo_burn` instants) share one control row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceTrack {
    /// A peer's serial service queue.
    Peer(PeerId),
    /// One query, keyed by the network-issued trace id (see
    /// [`Network::next_trace_query_id`](crate::network::Network::next_trace_query_id)).
    Query(u64),
    /// Run-level events not tied to a peer or query.
    Control,
}

/// A structured argument attached to a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceValue {
    U64(u64),
    Str(String),
}

impl From<u64> for TraceValue {
    fn from(v: u64) -> Self {
        TraceValue::U64(v)
    }
}

impl From<usize> for TraceValue {
    fn from(v: usize) -> Self {
        TraceValue::U64(v as u64)
    }
}

impl From<&str> for TraceValue {
    fn from(v: &str) -> Self {
        TraceValue::Str(v.to_string())
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> Self {
        TraceValue::Str(v)
    }
}

/// One structured trace record stamped with virtual time.
///
/// `dur_us == Some(d)` is a completed span covering `[ts_us, ts_us + d]`;
/// `None` is an instant. Events are emitted at *completion* time (spans are
/// only known once their end is), so emission order is deterministic for a
/// seeded run — the exporters rely on that for byte-identical output.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual-time start, microseconds.
    pub ts_us: u64,
    /// Span duration; `None` for instants.
    pub dur_us: Option<u64>,
    pub track: TraceTrack,
    pub name: &'static str,
    /// Coarse category: `"net"` (peer-queue occupancy), `"msg"` (per-message
    /// instants), `"exec"` (charged `ExecStep` chunks), `"stage"` (plan
    /// nodes), `"query"` (whole queries), `"counter"` (sampled values, e.g.
    /// the AIMD join window), `"run"` (faults, repairs and SLO burns on the
    /// control track).
    pub cat: &'static str,
    pub args: Vec<(&'static str, TraceValue)>,
}

impl TraceEvent {
    /// A span `[ts_us, ts_us + dur_us]`.
    pub fn span(
        ts_us: u64,
        dur_us: u64,
        track: TraceTrack,
        name: &'static str,
        cat: &'static str,
    ) -> Self {
        Self { ts_us, dur_us: Some(dur_us), track, name, cat, args: Vec::new() }
    }

    /// An instant at `ts_us`.
    pub fn instant(ts_us: u64, track: TraceTrack, name: &'static str, cat: &'static str) -> Self {
        Self { ts_us, dur_us: None, track, name, cat, args: Vec::new() }
    }

    /// A sampled counter value at `ts_us` (category `"counter"`; exporters
    /// render these as Chrome `"C"` events).
    pub fn counter(ts_us: u64, track: TraceTrack, name: &'static str, value: u64) -> Self {
        Self {
            ts_us,
            dur_us: None,
            track,
            name,
            cat: "counter",
            args: vec![("value", TraceValue::U64(value))],
        }
    }

    /// Append an argument (builder-style).
    pub fn arg(mut self, key: &'static str, value: impl Into<TraceValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }
}

/// Receiver of structured [`TraceEvent`]s — the tracing seam threaded
/// alongside [`EventSink`]. Where the event sink *prices* wire interactions
/// (advancing virtual time), a trace sink *records* them: per-peer queue and
/// service spans, per-query operator/step spans, message instants, counter
/// samples. The canonical implementation is `sqo_obs::TraceCollector`.
///
/// Installed via
/// [`Network::set_trace_sink`](crate::network::Network::set_trace_sink) as a
/// shared handle ([`SharedTraceSink`]): the network emits into it and lends
/// it to the event sink on each [`EventSink::deliver`] /
/// [`EventSink::local_work`], so both write one stream. Tracing is
/// zero-cost when no sink is installed: emission sites are a single
/// `Option` check and never construct events, and no emission site mutates
/// query-visible state.
pub trait TraceSink {
    fn record(&mut self, ev: TraceEvent);
}

/// Shared handle to a trace sink. The workspace is single-threaded, so a
/// plain `Rc<RefCell<..>>` suffices.
pub type SharedTraceSink = std::rc::Rc<std::cell::RefCell<dyn TraceSink>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_merges_windows_and_sums_durations() {
        let mut a = SimLatency {
            start_us: 100,
            end_us: 300,
            elapsed_us: 200,
            net_us: 120,
            timed_messages: 3,
            ..Default::default()
        };
        let b = SimLatency {
            start_us: 300,
            end_us: 450,
            elapsed_us: 150,
            net_us: 90,
            timed_messages: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.start_us, 100);
        assert_eq!(a.end_us, 450);
        assert_eq!(a.elapsed_us, 350);
        assert_eq!(a.net_us, 210);
        assert_eq!(a.timed_messages, 5);
    }

    #[test]
    fn absorb_ignores_empty_and_adopts_into_empty() {
        let full = SimLatency { start_us: 5, end_us: 9, elapsed_us: 4, ..Default::default() };
        let mut a = SimLatency::default();
        a.absorb(&full);
        assert_eq!(a, full);
        let mut b = full;
        b.absorb(&SimLatency::default());
        assert_eq!(b, full);
    }
}
