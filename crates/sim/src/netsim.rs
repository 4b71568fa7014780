//! `NetSim` — the virtual-time charger installed on an overlay network.
//!
//! Implements [`EventSink`]: every message the overlay simulates is stamped
//! onto a virtual clock using a pluggable [`LatencyModel`], optional
//! [`LossModel`] retransmissions, and a **per-peer serial service queue** —
//! each peer processes one message at a time, so concurrent queries landing
//! on the same hot peer wait behind each other exactly the way a single
//! request thread would make them in a deployment.
//!
//! ## Timing of one message `from → to`
//!
//! ```text
//! depart   = frontier (virtual time at the sender)
//! arrive   = depart + loss_timeouts + link_latency(from, to)
//! start    = max(arrive, busy_until[to])        <- serial queue
//! done     = start + service(bytes)
//! busy_until[to] = done; frontier = done
//! ```
//!
//! Fork/branch/join rewind the frontier to the fork point for every branch
//! and resume at the latest completion — the critical path of a parallel
//! fan-out. The per-peer queues are shared by *all* queries, which is where
//! cross-query contention (and the concurrent-workload p99 inflation the
//! driver measures) comes from.
//!
//! ## Relation to the sharded core's lookahead invariant
//!
//! `NetSim` is the *analytic* model: a whole overlay call folds its hops
//! into the clock at once, so it has no notion of events in flight and no
//! parallelism to exploit. The sharded core ([`crate::scale`]) is the
//! *message-level* model; its correctness rests on a property the latency
//! models here must uphold: **every link traversal takes at least the
//! model's minimum latency**. That minimum is the conservative lookahead
//! window — events within one window cannot affect each other across
//! peers, because any influence needs a message and every message takes
//! ≥ one window to arrive. A latency model offering zero-cost links would
//! shrink the safety window to nothing and serialize the sharded core;
//! keep configured minima ≥ 1 µs.

use crate::latency::{LatencyModel, LossModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqo_overlay::clock::{EventSink, MsgKind, SharedTraceSink, SimLatency, TraceEvent, TraceTrack};
use sqo_overlay::PeerId;

/// Everything configurable about the virtual-time model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    pub latency: LatencyModel,
    pub loss: LossModel,
    /// Fixed receiver CPU cost per message.
    pub service_us_per_msg: u64,
    /// Additional receiver cost per KiB of message body.
    pub service_us_per_kib: u64,
    /// Local-scan cost per stored entry touched.
    pub scan_us_per_item: u64,
    /// Seed of the sampling stream (jitter, loss).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            latency: LatencyModel::default(),
            loss: LossModel::default(),
            service_us_per_msg: 50,
            service_us_per_kib: 20,
            scan_us_per_item: 2,
            seed: 42,
        }
    }
}

/// Running decomposition of every frontier advance since the sink was
/// created: each `deliver`/`local_work`/forward `reset_to_us` moves the
/// frontier by exactly `net + queue + service + stall` microseconds, so a
/// query window's critical-path blame is the delta of this accumulator
/// across the window. Branch rewinds restore the fork-point value, which
/// keeps the accumulator in lockstep with the frontier through fan-outs.
/// It is part of the sink's image ([`NetSimState::blame`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Blame {
    pub net_us: u64,
    pub queue_us: u64,
    pub service_us: u64,
    pub stall_us: u64,
}

struct Fork {
    start_us: u64,
    max_end_us: u64,
    start_blame: Blame,
    max_end_blame: Blame,
}

/// The event-charging engine. Install on a network with
/// [`install`] or `Network::set_event_sink`.
pub struct NetSim {
    cfg: SimConfig,
    /// `cfg.latency`'s [`LatencyModel::log_median`], which never changes.
    log_median: f64,
    /// Everything a checkpoint keeps (see [`NetSimState`]).
    state: NetSimState,
    forks: Vec<Fork>,
    /// Open query windows, innermost last. Operators nest windows (a join
    /// opens one, then its per-left-item selections open their own); an
    /// inner window closing folds its sums into the parent, so the
    /// outermost window sees the whole query — the same inclusion
    /// semantics as the traffic-snapshot deltas. The [`Blame`] is the
    /// accumulator snapshot at window open; closing takes the delta.
    windows: Vec<(SimLatency, usize, Blame)>,
}

impl NetSim {
    /// `n_peers` sizes the per-peer service queues.
    pub fn new(cfg: SimConfig, n_peers: usize) -> Self {
        let state = NetSimState {
            rng: StdRng::seed_from_u64(cfg.seed),
            frontier_us: 0,
            busy_until_us: vec![0; n_peers],
            blame: Blame::default(),
        };
        Self::from_state(cfg, state)
    }

    /// Swap the loss model mid-run (fault injection: transient loss
    /// spikes). Latency, service costs and the sampling stream are left
    /// untouched, so a spike that is later reverted to the baseline model
    /// perturbs only the traffic inside its window.
    pub fn set_loss_model(&mut self, loss: LossModel) {
        self.cfg.loss = loss;
    }

    fn service_us(&self, bytes: usize) -> u64 {
        self.cfg.service_us_per_msg + self.cfg.service_us_per_kib * (bytes as u64 / 1024)
    }

    /// Copy the sink's [`NetSimState`] out (checkpointing).
    ///
    /// Only legal at a **quiesce boundary**: no open query window and no
    /// open fork — the window stack holds borrow-like references into task
    /// state machines that cannot be serialized. The driver guarantees this
    /// by pausing only when every in-flight slot is empty.
    pub fn export_state(&self) -> NetSimState {
        assert!(self.windows.is_empty(), "cannot checkpoint inside an open query window");
        assert!(self.forks.is_empty(), "cannot checkpoint inside an open fork");
        self.state.clone()
    }

    /// Rebuild a sink around an exported image. `cfg` is supplied by the
    /// caller (the snapshot artifact carries dynamic state only; resuming
    /// against a different latency model is a different experiment and
    /// diverges by design).
    pub fn from_state(cfg: SimConfig, state: NetSimState) -> Self {
        let log_median = cfg.latency.log_median();
        Self { cfg, log_median, state, forks: Vec::new(), windows: Vec::new() }
    }
}

/// The owned image of a [`NetSim`] — the sink's state outside its open
/// windows and forks: the sampling stream's position, the frontier, every
/// peer's serial-queue backlog, and the blame accumulator. A checkpoint
/// copies it at a quiesce boundary, where those stacks are empty (see
/// [`NetSim::export_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NetSimState {
    /// The jitter/loss stream.
    pub rng: StdRng,
    /// Virtual time at the query's point of control.
    pub frontier_us: u64,
    pub busy_until_us: Vec<u64>,
    /// Critical-path blame accumulator (see [`Blame`]).
    pub blame: Blame,
}

impl EventSink for NetSim {
    fn begin_query(&mut self) {
        self.windows.push((
            SimLatency { start_us: self.state.frontier_us, ..SimLatency::default() },
            self.forks.len(),
            self.state.blame,
        ));
    }

    fn end_query(&mut self) -> SimLatency {
        let (mut cur, fork_depth, open_blame) =
            self.windows.pop().expect("end_query without begin_query");
        debug_assert_eq!(self.forks.len(), fork_depth, "window closed inside an open fork");
        // Self-heal in release builds: a fork left open by an early return
        // inside the window must not let later queries rewind to a stale
        // fork point — drop the leaked forks so corruption cannot outlive
        // the query that caused it.
        self.forks.truncate(fork_depth);
        cur.end_us = self.state.frontier_us;
        cur.elapsed_us = cur.end_us.saturating_sub(cur.start_us);
        // Critical-path blame: the accumulator delta across the window
        // decomposes the frontier advance itself, so the four shares sum to
        // `elapsed_us` exactly (losing fan-out branches contribute nothing).
        cur.crit_net_us = self.state.blame.net_us.saturating_sub(open_blame.net_us);
        cur.crit_queue_us = self.state.blame.queue_us.saturating_sub(open_blame.queue_us);
        cur.crit_service_us = self.state.blame.service_us.saturating_sub(open_blame.service_us);
        cur.crit_stall_us = self.state.blame.stall_us.saturating_sub(open_blame.stall_us);
        // Fold the inner window's sums (not its wall-clock span, which the
        // parent's own start/end already covers) into the parent. The
        // `crit_*` deltas are not folded: the parent's own accumulator delta
        // already includes the inner activity.
        if let Some((parent, _, _)) = self.windows.last_mut() {
            parent.net_us += cur.net_us;
            parent.queue_us += cur.queue_us;
            parent.service_us += cur.service_us;
            parent.timed_messages += cur.timed_messages;
            parent.retransmissions += cur.retransmissions;
        }
        cur
    }

    fn deliver(
        &mut self,
        from: PeerId,
        to: PeerId,
        bytes: usize,
        kind: MsgKind,
        tracer: Option<&SharedTraceSink>,
    ) {
        let depart = self.state.frontier_us;
        let (loss_us, retx) = self.cfg.loss.sample(&mut self.state.rng);
        let link = self.cfg.latency.draw(from, to, &mut self.state.rng, self.log_median);
        let arrive = depart + loss_us + link;
        let start = arrive.max(self.state.busy_until_us[to.index()]);
        let service = self.service_us(bytes);
        let done = start + service;
        self.state.busy_until_us[to.index()] = done;
        self.state.frontier_us = done;

        self.state.blame.net_us += loss_us + link;
        self.state.blame.queue_us += start - arrive;
        self.state.blame.service_us += service;

        if let Some(t) = tracer {
            let mut tr = t.borrow_mut();
            if start > arrive {
                // Queueing behind the receiver's serial service queue.
                tr.record(
                    TraceEvent::span(arrive, start - arrive, TraceTrack::Peer(to), "wait", "net")
                        .arg("from", from.index())
                        .arg("cause", "busy-receiver"),
                );
            }
            tr.record(
                TraceEvent::span(start, service, TraceTrack::Peer(to), kind.label(), "net")
                    .arg("from", from.index())
                    .arg("bytes", bytes),
            );
        }

        if let Some((cur, _, _)) = self.windows.last_mut() {
            cur.net_us += loss_us + link;
            cur.queue_us += start - arrive;
            cur.service_us += service;
            cur.timed_messages += 1;
            cur.retransmissions += retx as u64;
        }
    }

    fn local_work(&mut self, peer: PeerId, items: u64, tracer: Option<&SharedTraceSink>) {
        let cost = self.cfg.scan_us_per_item * items;
        if cost == 0 {
            return;
        }
        let start = self.state.frontier_us.max(self.state.busy_until_us[peer.index()]);
        let done = start + cost;
        self.state.blame.queue_us += start - self.state.frontier_us;
        self.state.blame.service_us += cost;
        if let Some(t) = tracer {
            t.borrow_mut().record(
                TraceEvent::span(start, cost, TraceTrack::Peer(peer), "scan", "net")
                    .arg("items", items),
            );
        }
        if let Some((cur, _, _)) = self.windows.last_mut() {
            cur.queue_us += start - self.state.frontier_us;
            cur.service_us += cost;
        }
        self.state.busy_until_us[peer.index()] = done;
        self.state.frontier_us = done;
    }

    fn fork(&mut self) {
        self.forks.push(Fork {
            start_us: self.state.frontier_us,
            max_end_us: self.state.frontier_us,
            start_blame: self.state.blame,
            max_end_blame: self.state.blame,
        });
    }

    fn branch(&mut self) {
        let f = self.forks.last_mut().expect("branch outside a fork");
        if self.state.frontier_us > f.max_end_us {
            f.max_end_us = self.state.frontier_us;
            f.max_end_blame = self.state.blame;
        }
        self.state.frontier_us = f.start_us;
        self.state.blame = f.start_blame;
    }

    fn join(&mut self) {
        let f = self.forks.pop().expect("join outside a fork");
        if f.max_end_us > self.state.frontier_us {
            // A previous branch wins the critical path: its blame
            // decomposition travels with its frontier.
            self.state.frontier_us = f.max_end_us;
            self.state.blame = f.max_end_blame;
        }
    }

    fn now_us(&self) -> u64 {
        self.state.frontier_us
    }

    fn reset_to_us(&mut self, t_us: u64) {
        // May rewind relative to a previously *simulated* query — that is
        // how overlapping arrivals are expressed. A *forward* jump while a window is open
        // is waiting on the driver clock (a scheduling gap inside the
        // window): charge it to stall so the blame sum keeps covering the
        // frontier advance. Backward jumps leave the accumulator alone —
        // they only ever happen between windows.
        if t_us > self.state.frontier_us && !self.windows.is_empty() {
            self.state.blame.stall_us += t_us - self.state.frontier_us;
        }
        self.state.frontier_us = t_us;
    }

    fn busy_until_us(&self, peer: PeerId) -> u64 {
        self.state.busy_until_us[peer.index()]
    }

    /// Checkpointing downcast hook: lets the driver reach the concrete
    /// `NetSim` behind the network's `Box<dyn EventSink>` to export its
    /// state.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Install a fresh [`NetSim`] with `cfg` on the engine's network. Replaces
/// any previously installed sink; subsequent queries report
/// `QueryStats::sim`.
pub fn install(engine: &mut sqo_core::SimilarityEngine, cfg: SimConfig) {
    let n = engine.network().peer_count();
    engine.network_mut().set_event_sink(Box::new(NetSim::new(cfg, n)));
}

/// Install a [`NetSim`] restored from a checkpoint image on the engine's
/// network — the resume-side counterpart of [`install`]. The restored sink
/// continues the sampling stream, serial queues and clocks exactly where
/// the exported one stopped. An image of another peer count is an `Err`,
/// and the engine is left as it was.
pub fn install_restored(
    engine: &mut sqo_core::SimilarityEngine,
    cfg: SimConfig,
    state: NetSimState,
) -> Result<(), &'static str> {
    if state.busy_until_us.len() != engine.network().peer_count() {
        return Err("checkpoint was taken on a network with a different peer count");
    }
    engine.network_mut().set_event_sink(Box::new(NetSim::from_state(cfg, state)));
    Ok(())
}

/// Export the state of the `NetSim` installed on the engine's network, if
/// one is installed. Uses the [`EventSink::as_any_mut`] downcast hook.
pub fn export_installed(engine: &mut sqo_core::SimilarityEngine) -> Option<NetSimState> {
    let sink = engine.network_mut().event_sink_mut()?;
    let sim = sink.as_any_mut()?.downcast_mut::<NetSim>()?;
    Some(sim.export_state())
}

/// Swap the loss model of the installed `NetSim`, if one is installed —
/// the driver's hook for [`FaultKind::LossSpike`](crate::FaultKind)
/// events. Returns `false` when no `NetSim` sink is present.
pub fn set_installed_loss(engine: &mut sqo_core::SimilarityEngine, loss: LossModel) -> bool {
    let Some(sink) = engine.network_mut().event_sink_mut() else { return false };
    let Some(any) = sink.as_any_mut() else { return false };
    let Some(sim) = any.downcast_mut::<NetSim>() else { return false };
    sim.set_loss_model(loss);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(latency_us: u64) -> NetSim {
        NetSim::new(
            SimConfig {
                latency: LatencyModel::Constant { us: latency_us },
                service_us_per_msg: 10,
                service_us_per_kib: 0,
                scan_us_per_item: 1,
                ..SimConfig::default()
            },
            8,
        )
    }

    #[test]
    fn sequential_hops_add_up() {
        let mut s = sim(100);
        s.begin_query();
        s.deliver(PeerId(0), PeerId(1), 48, MsgKind::Route, None);
        s.deliver(PeerId(1), PeerId(2), 48, MsgKind::Route, None);
        let lat = s.end_query();
        assert_eq!(lat.elapsed_us, 2 * (100 + 10));
        assert_eq!(lat.timed_messages, 2);
        assert_eq!(lat.queue_us, 0);
    }

    #[test]
    fn fork_takes_the_critical_path_not_the_sum() {
        let mut s = sim(100);
        s.begin_query();
        s.fork();
        // Branch 1: one hop (110 us). Branch 2: two hops (220 us).
        s.branch();
        s.deliver(PeerId(0), PeerId(1), 0, MsgKind::Forward, None);
        s.branch();
        s.deliver(PeerId(0), PeerId(2), 0, MsgKind::Forward, None);
        s.deliver(PeerId(2), PeerId(3), 0, MsgKind::Result, None);
        s.join();
        let lat = s.end_query();
        assert_eq!(lat.elapsed_us, 220, "join must take the max branch, not 330");
        assert_eq!(lat.timed_messages, 3);
    }

    #[test]
    fn serial_queue_delays_messages_to_a_busy_peer() {
        let mut s = sim(100);
        // Query A occupies peer 5 until t = 110.
        s.begin_query();
        s.deliver(PeerId(0), PeerId(5), 0, MsgKind::Route, None);
        let a = s.end_query();
        assert_eq!(a.end_us, 110);
        // Query B arrives at t = 0 too; its message reaches peer 5 at 100
        // but must wait for A's service to finish at 110.
        s.reset_to_us(0);
        s.begin_query();
        s.deliver(PeerId(1), PeerId(5), 0, MsgKind::Route, None);
        let b = s.end_query();
        assert_eq!(b.queue_us, 10);
        assert_eq!(b.end_us, 120);
    }

    #[test]
    fn local_work_occupies_the_peer() {
        let mut s = sim(100);
        s.begin_query();
        s.local_work(PeerId(3), 50, None);
        let lat = s.end_query();
        assert_eq!(lat.elapsed_us, 50);
        assert_eq!(lat.service_us, 50);
    }

    #[test]
    fn nested_windows_fold_into_the_parent() {
        let mut s = sim(100);
        s.begin_query(); // outer (a join)
        s.deliver(PeerId(0), PeerId(1), 0, MsgKind::Route, None);
        s.begin_query(); // inner (per-left selection)
        s.deliver(PeerId(1), PeerId(2), 0, MsgKind::Route, None);
        let inner = s.end_query();
        assert_eq!(inner.timed_messages, 1);
        assert_eq!(inner.elapsed_us, 110);
        let outer = s.end_query();
        assert_eq!(outer.timed_messages, 2, "outer window includes inner activity");
        assert_eq!(outer.elapsed_us, 220);
        assert_eq!(outer.start_us, 0);
    }

    #[test]
    fn blame_decomposition_covers_the_critical_path() {
        let mut s = sim(100);
        // Warm up the queue on peer 5 so the second query sees queue wait.
        s.begin_query();
        s.deliver(PeerId(0), PeerId(5), 0, MsgKind::Route, None);
        s.end_query();
        s.reset_to_us(0);
        s.begin_query();
        s.deliver(PeerId(1), PeerId(5), 0, MsgKind::Route, None);
        s.fork();
        s.branch();
        s.deliver(PeerId(5), PeerId(1), 0, MsgKind::Forward, None);
        s.branch();
        s.deliver(PeerId(5), PeerId(2), 0, MsgKind::Forward, None);
        s.deliver(PeerId(2), PeerId(3), 0, MsgKind::Result, None);
        s.join();
        s.local_work(PeerId(3), 7, None);
        let lat = s.end_query();
        assert_eq!(
            lat.crit_net_us + lat.crit_queue_us + lat.crit_service_us + lat.crit_stall_us,
            lat.elapsed_us,
            "blame shares must sum to the window's critical path: {lat:?}"
        );
        assert_eq!(lat.crit_queue_us, 10, "the 10us wait behind the warm-up query");
        assert_eq!(lat.crit_net_us, 300, "three link hops on the winning branch");
        assert_eq!(lat.crit_stall_us, 0);
    }

    #[test]
    fn forward_reset_inside_a_window_counts_as_stall() {
        let mut s = sim(100);
        s.begin_query();
        s.deliver(PeerId(0), PeerId(1), 0, MsgKind::Route, None);
        s.reset_to_us(1_000); // driver jumps the clock mid-window
        s.deliver(PeerId(1), PeerId(2), 0, MsgKind::Route, None);
        let lat = s.end_query();
        assert_eq!(lat.crit_stall_us, 1_000 - 110);
        assert_eq!(
            lat.crit_net_us + lat.crit_queue_us + lat.crit_service_us + lat.crit_stall_us,
            lat.elapsed_us
        );
    }

    /// A restored sink must continue the jitter stream, serial queues and
    /// clocks exactly — identical subsequent traffic charges identically.
    #[test]
    fn state_round_trip_continues_charging_identically() {
        let cfg = SimConfig {
            latency: LatencyModel::Uniform { min_us: 50, max_us: 250 },
            ..SimConfig::default()
        };
        let mut a = NetSim::new(cfg, 8);
        // Warm up: some queries, including queue contention and a rewind.
        for i in 0..5u32 {
            a.begin_query();
            a.deliver(PeerId(0), PeerId(1 + (i % 3)), 256, MsgKind::Route, None);
            a.deliver(PeerId(1), PeerId(5), 0, MsgKind::Forward, None);
            a.local_work(PeerId(5), 20, None);
            a.end_query();
            a.reset_to_us(100 * u64::from(i));
        }

        let state = a.export_state();
        let mut b = NetSim::from_state(cfg, state.clone());
        assert_eq!(b.export_state(), state, "export/import/export must be a fixed point");

        // Identical traffic on both sinks from here on.
        let drive = |s: &mut NetSim| {
            let mut lats = Vec::new();
            for i in 0..4u32 {
                s.begin_query();
                s.deliver(PeerId(2), PeerId(6), 1024, MsgKind::Route, None);
                s.fork();
                s.branch();
                s.deliver(PeerId(6), PeerId(7), 64, MsgKind::Forward, None);
                s.branch();
                s.deliver(PeerId(6), PeerId(3), 64, MsgKind::Forward, None);
                s.join();
                lats.push(s.end_query());
                s.reset_to_us(50 * u64::from(i));
            }
            lats
        };
        assert_eq!(drive(&mut a), drive(&mut b), "restored sink diverged from the original");
        assert_eq!(b.export_state(), a.export_state());
    }

    #[test]
    #[should_panic(expected = "open query window")]
    fn export_inside_a_window_is_refused() {
        let mut s = sim(100);
        s.begin_query();
        let _ = s.export_state();
    }
}
