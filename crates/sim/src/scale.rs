//! `ScaleSim` — the sharded, windowed event core for very large overlays.
//!
//! [`NetSim`](crate::NetSim) charges virtual time *analytically*: a whole
//! `Retrieve` (route chain, shower fan-out, replies) is folded into the
//! clock inside one engine call. That is exact for latency accounting but
//! serializes everything through one event loop and one mutable network.
//! `ScaleSim` decomposes retrieval into **true per-message events** — every
//! route hop, shower forward and result reply is its own event, routed by
//! a clone of the overlay's own [`sqo_overlay::Topology`] (same tables,
//! same Algorithm-1 decision as `Network::route`) — and executes them on a
//! **conservatively windowed, sharded core** that scales to 10⁵–10⁶ peers.
//!
//! ## The lookahead invariant
//!
//! Peers are partitioned into shards (`peer % shards`). Each shard keeps
//! its pending events in a calendar ring of windowed buckets of width
//! `W ≤ service_us + link_min_us` — the **lower bound on how far ahead
//! any event can schedule another** (a receiver serves for `service_us`,
//! then the follow-up message travels at least `link_min_us`; `W` is the
//! largest power of two under that bound, so window arithmetic is a
//! shift). The core advances window by window: within window `k`
//! (`[kW, (k+1)W)`) every shard processes its own bucket independently —
//! no locks, no cross-shard reads — because any message emitted by an
//! event at time `t ∈ [kW, (k+1)W)` arrives at
//!
//! ```text
//! arrival = service_completion + link_latency ≥ t + service + link_min ≥ (k+1)W
//! ```
//!
//! i.e. strictly after the current window. The one window loop sweeps the
//! shards in turn and inserts emissions directly into the destination
//! shard's ring (legal for the same reason: they can only land in windows
//! not yet swept). This is the classic conservative (Chandy–Misra-style)
//! lookahead argument with the minimum service-plus-link time as the
//! safety window; a `debug_assert` enforces it on every emission.
//!
//! ## Determinism
//!
//! Within a window each shard processes its bucket in the order of the
//! global event key `(at_us, qid, step)` — `(qid, step)` is unique per
//! message, so the key is total and the order a bucket was filled in never
//! shows; every per-decision random draw is a **stateless hash** of
//! `(seed, qid, step)` rather than a shared RNG stream. A peer's event
//! sequence — and therefore its `busy_until` evolution — is thus identical
//! for *any* shard count, and the run's [`ScaleOutcome`] (event count,
//! completion times, checksum) is bit-identical across all of them (pinned
//! by the root `scale_core` tests). The serial baseline ([`run_serial`])
//! executes the same events on one global binary heap ordered by the same
//! key, so it produces the same outcome by construction — what differs is
//! wall-clock. The heap pays log₂ n comparisons per event; a window pays
//! about none: every event of window `w` lies in `[wW, (w+1)W)`, so its
//! offset in the window is a small integer, and a counting pass by that
//! offset leaves only the few events sharing one to be compared by key
//! (`order_window`).

use crate::seed::mix;
use sqo_overlay::peer::Item;
use sqo_overlay::{Key, Network, PeerId};

// ----------------------------------------------------------------------
// Topology: the overlay's structure plus the scan-cost input
// ----------------------------------------------------------------------

/// What message-level simulation reads of a network: a clone of its
/// [`sqo_overlay::Topology`] — partition paths, membership, routing
/// references, nothing re-derived — plus the stored-entry count per
/// partition. Cloning decouples a run from the network's later mutation
/// (churn repair, inserts); nothing here can be mutated.
pub struct Topology {
    overlay: sqo_overlay::Topology,
    /// Stored (key, item) pairs per partition — the local-scan cost input.
    items_per_part: Vec<u32>,
}

impl Topology {
    /// Snapshot `net`'s structure.
    pub fn of_network<T: Item>(net: &Network<T>) -> Self {
        let overlay = net.topology().clone();
        let items_per_part = (0..overlay.partition_count())
            .map(|part| net.partition_store(part).item_count() as u32)
            .collect();
        Self { overlay, items_per_part }
    }

    pub fn peer_count(&self) -> usize {
        self.overlay.peer_count()
    }

    pub fn partition_count(&self) -> usize {
        self.overlay.partition_count()
    }
}

// ----------------------------------------------------------------------
// Configuration and events
// ----------------------------------------------------------------------

/// Workload + timing model of a `ScaleSim` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Number of retrieve queries to drive (the simulated client load).
    pub queries: usize,
    /// Shard count of the windowed core ([`run_sharded`]); clamped to ≥ 1.
    pub shards: usize,
    /// Stateless-randomness seed (initiators, targets, jitter draws).
    pub seed: u64,
    /// Minimum link latency — together with `service_us` it bounds the
    /// conservative window width from above.
    pub link_min_us: u64,
    /// Uniform jitter added on top of the minimum, per message.
    pub link_jitter_us: u64,
    /// Receiver service cost per message.
    pub service_us: u64,
    /// Local-scan cost per stored entry at the responding partition.
    pub scan_us_per_item: u64,
    /// Query arrivals are spread uniformly over `[0, arrival_spread_us)`.
    pub arrival_spread_us: u64,
    /// Up to this many trailing bits are trimmed from a query's target
    /// path (draw-dependent), turning the exact-key lookup into a shallow
    /// prefix query that showers over the covered subtree.
    pub shower_trim_bits: u32,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            queries: 1_000,
            shards: 2,
            seed: 7,
            link_min_us: 500,
            link_jitter_us: 1_500,
            service_us: 50,
            scan_us_per_item: 2,
            arrival_spread_us: 100_000,
            shower_trim_bits: 2,
        }
    }
}

/// One in-flight message. The event key `(at_us, qid, step)` is the
/// global deterministic order; `step` is unique per message within a query
/// by construction (route hops count up; a shower's forwards take the
/// `fanout` steps after the owner's, forward replies shift past both).
/// Public because a [`ScaleCheckpoint`] holds the pending ones as they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ev {
    pub at_us: u64,
    pub qid: u32,
    pub step: u32,
    pub peer: u32,
    pub kind: EvKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvKind {
    /// A routed query message arriving at a peer.
    Query,
    /// A shower forward into a sibling partition; the receiver scans
    /// locally and replies to the initiator.
    Forward,
    /// A partial result arriving at the initiator. The owner's own reply
    /// announces the expected total (`of = fanout`); sibling replies carry
    /// `of = 0` — the initiator reconciles both arrival orders.
    Result { of: u32 },
}

impl Ev {
    /// The event key packed into one `u128`: the serial heap orders by it,
    /// and a window by its offset and then by it, so both agree on event
    /// order.
    #[inline]
    fn key128(&self) -> u128 {
        ((self.at_us as u128) << 64) | ((self.qid as u128) << 32) | self.step as u128
    }
}

/// Shift separating forward-reply steps from forward steps (bounds shower
/// fan-out; asserted at emission).
const REPLY_STEP_SHIFT: u32 = 1 << 20;

/// Read-only per-query plan, fixed at arrival time.
struct QInfo {
    initiator: u32,
    key: Key,
    /// The partitions of the key's subtree, which its owner showers.
    subtree: (u32, u32),
}

/// Mutable per-query progress, owned by the initiator's shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QState {
    /// Expected result count, 0 until the owner's reply announces it.
    pub expected: u32,
    /// Results received so far.
    pub got: u32,
    /// Virtual completion time (0 = not complete).
    pub done_us: u64,
}

// ----------------------------------------------------------------------
// The event handler (identical for every execution engine)
// ----------------------------------------------------------------------

/// Mutable simulation state as seen by the handler. The serial engine
/// backs it with whole-network vectors; a shard backs it with its own
/// stride-indexed slices — the handler cannot tell the difference, which
/// is precisely the determinism argument.
trait SimState {
    fn busy_mut(&mut self, peer: u32) -> &mut u64;
    fn qstate_mut(&mut self, qid: u32) -> &mut QState;
}

/// Shared, read-only inputs of a run.
struct RunCtx<'a> {
    topo: &'a Topology,
    cfg: &'a ScaleConfig,
    qinfo: Vec<QInfo>,
}

impl RunCtx<'_> {
    /// Per-message link latency: the configured minimum (clamped to ≥ 1 —
    /// the windowed core's safety width must be positive) plus a stateless
    /// uniform jitter draw.
    #[inline]
    fn latency(&self, qid: u32, step: u32) -> u64 {
        self.cfg.link_min_us.max(1)
            + mix(self.cfg.seed, qid, step, 0xA11C).wrapping_rem(self.cfg.link_jitter_us + 1)
    }

    /// Process one message arrival: serial service at the receiving peer,
    /// then emission of the follow-up messages (each ≥ `link_min_us`
    /// ahead — the lookahead invariant).
    fn handle<S: SimState>(&self, ev: Ev, st: &mut S, emit: &mut impl FnMut(Ev)) {
        let cfg = self.cfg;
        let topo = &self.topo.overlay;
        let peer = PeerId(ev.peer);
        let q = &self.qinfo[ev.qid as usize];
        // One borrow of the peer's slot for the whole event: the sharded
        // state's stride indexing is paid once, not per touch.
        let busy = st.busy_mut(ev.peer);
        let start = ev.at_us.max(*busy);
        match ev.kind {
            EvKind::Query => {
                let done = start + cfg.service_us;
                *busy = done;
                let refs = topo.route_level(peer, &q.key).map(|l| topo.refs(peer, l));
                if refs.is_some_and(<[PeerId]>::is_empty) {
                    // The key lies in a gap: nothing to forward to, and
                    // nothing to scan. The peer answers "empty", one result.
                    let rstep = ev.step + 1;
                    emit(Ev {
                        at_us: done + self.latency(ev.qid, rstep),
                        qid: ev.qid,
                        step: rstep,
                        peer: q.initiator,
                        kind: EvKind::Result { of: 1 },
                    });
                } else if let Some(refs) = refs {
                    // Route hop: the first differing level picks the next
                    // reference (Algorithm 1, stateless draw).
                    let next = refs[mix(cfg.seed, ev.qid, ev.step, 0x11) as usize % refs.len()];
                    emit(Ev {
                        at_us: done + self.latency(ev.qid, ev.step + 1),
                        qid: ev.qid,
                        step: ev.step + 1,
                        peer: next.0,
                        kind: EvKind::Query,
                    });
                } else {
                    // Responsible: shower over the peered partitions of the
                    // covered subtree — its gaps get nothing. The own
                    // partition scans inline; every sibling gets one
                    // forward, and each of them replies.
                    let (s, e) = (q.subtree.0 as usize, q.subtree.1 as usize);
                    let own = topo.partition_of(peer);
                    let peered = topo.peered_in(s, e);
                    let fanout = peered.len() as u32;
                    debug_assert!(
                        (s..e).contains(&own),
                        "owner's partition lies in its own subtree"
                    );
                    debug_assert!(fanout < REPLY_STEP_SHIFT, "shower fan-out exceeds step space");
                    let mut j = 0u32;
                    let scan_done =
                        done + cfg.scan_us_per_item * self.topo.items_per_part[own] as u64;
                    for &part in peered {
                        let part = part as usize;
                        if part == own {
                            continue;
                        }
                        let fstep = ev.step + 1 + j;
                        j += 1;
                        let ms = topo.members(part);
                        let responder = ms[mix(cfg.seed, ev.qid, fstep, 0xF0) as usize % ms.len()];
                        emit(Ev {
                            at_us: done + self.latency(ev.qid, fstep),
                            qid: ev.qid,
                            step: fstep,
                            peer: responder.0,
                            kind: EvKind::Forward,
                        });
                    }
                    // The owner's local scan occupies it beyond the plain
                    // message service before its own reply departs.
                    *busy = scan_done;
                    let rstep = ev.step + 1 + fanout;
                    emit(Ev {
                        at_us: scan_done + self.latency(ev.qid, rstep),
                        qid: ev.qid,
                        step: rstep,
                        peer: q.initiator,
                        kind: EvKind::Result { of: fanout },
                    });
                }
            }
            EvKind::Forward => {
                let done = start
                    + cfg.service_us
                    + cfg.scan_us_per_item
                        * self.topo.items_per_part[topo.partition_of(peer)] as u64;
                *busy = done;
                let rstep = ev.step + REPLY_STEP_SHIFT;
                emit(Ev {
                    at_us: done + self.latency(ev.qid, rstep),
                    qid: ev.qid,
                    step: rstep,
                    peer: q.initiator,
                    kind: EvKind::Result { of: 0 },
                });
            }
            EvKind::Result { of } => {
                let done = start + cfg.service_us;
                *busy = done;
                let qs = st.qstate_mut(ev.qid);
                qs.got += 1;
                if of > 0 {
                    debug_assert_eq!(qs.expected, 0, "only the owner announces the fan-out");
                    qs.expected = of;
                }
                if qs.expected > 0 && qs.got == qs.expected && qs.done_us == 0 {
                    qs.done_us = done;
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Outcomes
// ----------------------------------------------------------------------

/// The deterministic half of a run: bit-identical for the serial baseline
/// and every shard count — the invariant the determinism tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleOutcome {
    /// Queries that saw all their expected results.
    pub queries_done: u64,
    /// Total message events processed.
    pub events: u64,
    /// Latest completion (virtual µs).
    pub max_done_us: u64,
    /// Sum of completion times (virtual µs, wrapping).
    pub sum_done_us: u64,
    /// FNV-1a over `(qid, done_us)` of all completed queries.
    pub checksum: u64,
}

/// The telemetry half of one engine run: how evenly the event load spread
/// over the shards and how often the conservative lookahead swept an
/// empty window. None of it feeds back into the simulation —
/// [`ScaleOutcome`] stays bit-identical. (Wall-clock speed is measured by
/// the `scale-core` workload of `benchmark/`, around the call.)
#[derive(Debug, Clone)]
pub struct ScaleRun {
    pub shards: usize,
    pub events: u64,
    /// Events processed by each shard (one entry per shard; the serial
    /// engine reports a single entry).
    pub events_per_shard: Vec<u64>,
    /// Conservative windows swept, summed over shards (0 for serial).
    pub windows_swept: u64,
    /// Swept windows whose bucket was empty — the conservative lookahead's
    /// stall counter: windows crossed with nothing to do.
    pub empty_windows: u64,
}

fn build_ctx<'a>(topo: &'a Topology, cfg: &'a ScaleConfig) -> RunCtx<'a> {
    let peers = topo.peer_count() as u64;
    let parts = topo.partition_count() as u64;
    let qinfo = (0..cfg.queries as u32)
        .map(|qid| {
            let initiator = mix(cfg.seed, qid, 0, 0x1111).wrapping_rem(peers) as u32;
            let part = mix(cfg.seed, qid, 0, 0x2222).wrapping_rem(parts) as usize;
            let path = &topo.overlay.paths()[part];
            let trim = (mix(cfg.seed, qid, 0, 0x3333).wrapping_rem(cfg.shower_trim_bits as u64 + 1))
                as usize;
            // ≥ 1 bit where the path has one (a one-partition cover's is empty).
            let bits = path.len().saturating_sub(trim).max(1).min(path.len());
            let (s, e) = topo.overlay.sharing(part, bits);
            QInfo { initiator, key: path.prefix(bits), subtree: (s as u32, e as u32) }
        })
        .collect();
    RunCtx { topo, cfg, qinfo }
}

fn initial_events(ctx: &RunCtx<'_>) -> Vec<Ev> {
    let cfg = ctx.cfg;
    (0..cfg.queries as u32)
        .map(|qid| Ev {
            at_us: mix(cfg.seed, qid, 0, 0x57A7).wrapping_rem(cfg.arrival_spread_us.max(1)),
            qid,
            step: 0,
            peer: ctx.qinfo[qid as usize].initiator,
            kind: EvKind::Query,
        })
        .collect()
}

fn finish(ctx: &RunCtx<'_>, qstate: &[QState], events: u64) -> ScaleOutcome {
    let mut queries_done = 0u64;
    let mut max_done = 0u64;
    let mut sum_done = 0u64;
    let mut checksum = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for (qid, qs) in qstate.iter().enumerate().take(ctx.cfg.queries) {
        if qs.done_us > 0 {
            queries_done += 1;
            max_done = max_done.max(qs.done_us);
            sum_done = sum_done.wrapping_add(qs.done_us);
            for w in [qid as u64, qs.done_us] {
                checksum ^= w;
                checksum = checksum.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    ScaleOutcome { queries_done, events, max_done_us: max_done, sum_done_us: sum_done, checksum }
}

// ----------------------------------------------------------------------
// Serial baseline: one global binary heap
// ----------------------------------------------------------------------

/// Heap entry ordered by the global event key, reversed for a min-heap.
struct HeapEv(Ev);

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.0.key128() == other.0.key128()
    }
}
impl Eq for HeapEv {}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.key128().cmp(&self.0.key128())
    }
}

/// Whole-network state for the serial engine.
struct GlobalState {
    busy: Vec<u64>,
    qstate: Vec<QState>,
}

impl SimState for GlobalState {
    #[inline]
    fn busy_mut(&mut self, peer: u32) -> &mut u64 {
        &mut self.busy[peer as usize]
    }
    #[inline]
    fn qstate_mut(&mut self, qid: u32) -> &mut QState {
        &mut self.qstate[qid as usize]
    }
}

/// The one heap loop: pop the globally earliest event, handle it, push
/// what it emitted — until the heap drains (`Done`) or, with a `stop_us`,
/// until the earliest pending event is at or past the bound (`Paused`;
/// the boundary event itself belongs to the resumed half). `events` is
/// the count processed before this call (non-zero when resuming).
fn serial_core(
    ctx: &RunCtx<'_>,
    mut st: GlobalState,
    pending: impl IntoIterator<Item = Ev>,
    mut events: u64,
    stop_us: Option<u64>,
) -> ScalePhase {
    let mut heap: std::collections::BinaryHeap<HeapEv> = pending.into_iter().map(HeapEv).collect();
    let mut emitted: Vec<Ev> = Vec::new();
    loop {
        if let Some(stop_us) = stop_us {
            if heap.peek().is_some_and(|h| h.0.at_us >= stop_us) {
                let mut pending: Vec<Ev> = heap.into_iter().map(|HeapEv(e)| e).collect();
                pending.sort_unstable_by_key(Ev::key128);
                return ScalePhase::Paused(ScaleCheckpoint {
                    stop_us,
                    pending,
                    busy: st.busy,
                    qstate: st.qstate,
                    events,
                });
            }
        }
        let Some(HeapEv(ev)) = heap.pop() else { break };
        events += 1;
        ctx.handle(ev, &mut st, &mut |e| emitted.push(e));
        heap.extend(emitted.drain(..).map(HeapEv));
    }
    let run = ScaleRun {
        shards: 1,
        events,
        events_per_shard: vec![events],
        windows_swept: 0,
        empty_windows: 0,
    };
    ScalePhase::Done(finish(ctx, &st.qstate, events), run)
}

/// A fresh run on the heap loop, to the end or to `stop_us`.
fn serial_start(topo: &Topology, cfg: &ScaleConfig, stop_us: Option<u64>) -> ScalePhase {
    let ctx = build_ctx(topo, cfg);
    let st = GlobalState {
        busy: vec![0u64; topo.peer_count()],
        qstate: vec![QState::default(); cfg.queries],
    };
    let pending = initial_events(&ctx);
    serial_core(&ctx, st, pending, 0, stop_us)
}

/// The serial baseline: every event on **one global binary heap** ordered
/// by the event key — the direct analogue of the classic single event
/// loop. Same [`ScaleOutcome`] as the sharded core by construction;
/// measured for the wall-clock comparison.
pub fn run_serial(topo: &Topology, cfg: &ScaleConfig) -> (ScaleOutcome, ScaleRun) {
    serial_start(topo, cfg, None).done()
}

// ----------------------------------------------------------------------
// Checkpoint / resume
// ----------------------------------------------------------------------

/// The owned image of a paused scale run. The scale core has no in-flight
/// task machinery — every event is a plain message — so any event boundary
/// is a legal checkpoint: the image is just the pending event set, every
/// peer's `busy_until`, per-query progress, and the processed-event count.
/// Static inputs ([`Topology`], [`ScaleConfig`]) are supplied again at
/// resume; randomness is stateless ([`crate::seed::mix`]), so there is no
/// RNG stream to carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleCheckpoint {
    /// The stop bound the pause was requested at (informational).
    pub stop_us: u64,
    /// Pending events, sorted by the global event key.
    pub pending: Vec<Ev>,
    /// `busy_until` per peer.
    pub busy: Vec<u64>,
    /// Per-query progress, dense by qid.
    pub qstate: Vec<QState>,
    /// Events processed before the pause.
    pub events: u64,
}

/// Outcome of [`run_serial_until`].
pub enum ScalePhase {
    Done(ScaleOutcome, ScaleRun),
    Paused(ScaleCheckpoint),
}

impl ScalePhase {
    /// The finished run of a phase that had no stop bound to pause at.
    fn done(self) -> (ScaleOutcome, ScaleRun) {
        match self {
            ScalePhase::Done(outcome, run) => (outcome, run),
            ScalePhase::Paused(_) => unreachable!("only a stop bound pauses a run"),
        }
    }
}

/// [`run_serial`], paused at the first event boundary at or after
/// `stop_us`: events strictly before the bound are processed, everything
/// still pending is walked into a [`ScaleCheckpoint`]. A workload that
/// drains before the bound completes normally.
///
/// Resuming — serially ([`resume_serial`]) or on the windowed core
/// ([`resume_sharded`], any shard count) — produces the uninterrupted
/// run's [`ScaleOutcome`] bit for bit.
pub fn run_serial_until(topo: &Topology, cfg: &ScaleConfig, stop_us: u64) -> ScalePhase {
    serial_start(topo, cfg, Some(stop_us))
}

/// Resume a paused run on the serial engine. `topo` and `cfg` must equal
/// the original run's (the stateless draws replay from them); a checkpoint
/// that does not fit them is an error.
pub fn resume_serial(
    topo: &Topology,
    cfg: &ScaleConfig,
    ckpt: &ScaleCheckpoint,
) -> Result<(ScaleOutcome, ScaleRun), &'static str> {
    check_fits(topo, cfg, ckpt)?;
    let ctx = build_ctx(topo, cfg);
    let st = GlobalState { busy: ckpt.busy.clone(), qstate: ckpt.qstate.clone() };
    Ok(serial_core(&ctx, st, ckpt.pending.iter().copied(), ckpt.events, None).done())
}

/// Whether `ckpt` fits the run it resumes: one `busy_until` per peer, one
/// progress slot per query, and every pending event at a peer and for a
/// query of the run — the handler indexes by both. The artifact does not
/// carry the topology, so decoding a checkpoint cannot check this.
///
/// Its numbers must also be ones the run can reach, or the handler's
/// arithmetic overflows and the sharded core sizes its ring from them:
/// no more processed events than a run of this topology and workload has
/// ([`max_events`]); every clock — pending arrival or `busy_until` — at
/// most `arrival_spread_us` plus one maximal handler step
/// ([`max_delta_us`]) per processed event, since a step moves the latest
/// clock by no more; and every pending step below [`STEP_LIMIT`].
fn check_fits(
    topo: &Topology,
    cfg: &ScaleConfig,
    ck: &ScaleCheckpoint,
) -> Result<(), &'static str> {
    let (peers, queries) = (topo.peer_count(), cfg.queries);
    let within = |ev: &Ev| (ev.peer as usize) < peers && (ev.qid as usize) < queries;
    let fits =
        ck.busy.len() == peers && ck.qstate.len() == queries && ck.pending.iter().all(within);
    if !fits {
        return Err("checkpoint from a different topology or workload");
    }
    if ck.events > max_events(topo, cfg) {
        return Err("checkpoint has processed more events than the run has");
    }
    let reach = ck
        .events
        .checked_mul(max_delta_us(topo, cfg))
        .and_then(|steps| steps.checked_add(cfg.arrival_spread_us));
    let clocks = ck.pending.iter().map(|ev| ev.at_us).chain(ck.busy.iter().copied());
    if reach.is_none_or(|reach| clocks.max().is_some_and(|clock| clock > reach)) {
        return Err("checkpoint clock beyond what its processed events reach");
    }
    if ck.pending.iter().any(|ev| ev.step >= STEP_LIMIT) {
        return Err("checkpoint step beyond what a query takes");
    }
    Ok(())
}

/// A pending step must lie below this. The handler adds at most one route
/// hop per path bit, a shower's fan-out (below [`REPLY_STEP_SHIFT`]) and
/// [`REPLY_STEP_SHIFT`] to a query's steps, which therefore stay far below
/// it — and so does every step the handler derives from one that is.
const STEP_LIMIT: u32 = 1 << 31;

/// The most a handler step moves the latest clock of a run: service, the
/// longest local scan and the slowest link.
fn max_delta_us(topo: &Topology, cfg: &ScaleConfig) -> u64 {
    let max_scan_us =
        topo.items_per_part.iter().copied().max().unwrap_or(0) as u64 * cfg.scan_us_per_item;
    cfg.service_us + max_scan_us + cfg.link_min_us.max(1) + cfg.link_jitter_us
}

/// The most events a run of `cfg.queries` queries on `topo` processes: per
/// query, its arrival, a route hop per path bit, the owner's reply and a
/// forward and a reply per other partition of a shower.
fn max_events(topo: &Topology, cfg: &ScaleConfig) -> u64 {
    let depth = topo.overlay.paths().iter().map(Key::len).max().unwrap_or(0) as u64;
    let per_query = 2 + depth + 2 * topo.partition_count() as u64;
    (cfg.queries as u64).saturating_mul(per_query)
}

// ----------------------------------------------------------------------
// The sharded windowed core
// ----------------------------------------------------------------------

/// One shard's mutable state: the `busy_until` slots of the peers
/// `p ≡ id (mod shards)`, the progress of queries initiated by them, and
/// its processed-event count. Pending events live in the shard's [`Ring`].
struct Shard {
    id: usize,
    shards: usize,
    /// `busy_until` of peer `p`, at local index `p / shards`.
    busy: Vec<u64>,
    /// Dense by qid; only queries whose initiator lives here are touched.
    qstate: Vec<QState>,
    events: u64,
    /// Telemetry (never read by the handler — pure observation).
    windows_swept: u64,
    empty_windows: u64,
}

/// One shard's **calendar ring** of pending events: slot `w & mask`
/// holds window `w`'s bucket. Insertion is a shift, a mask and a push —
/// no ordered-map node, no per-event allocation (slot vectors keep their
/// capacity across laps) — which is where the windowed core's wall-clock
/// edge over per-event heap churn comes from. The ring is sized at
/// start-up so every event a handler can emit (bounded by the arrival
/// spread and by `service + max_scan + link_min + jitter`) lands within
/// `mask + 1` windows of the cursor; `insert` asserts it.
///
/// Kept apart from [`Shard`] so the window loop can borrow one
/// shard's state mutably while inserting emissions into **any** shard's
/// ring — the lookahead invariant makes that safe (every emission lands
/// in a later window).
struct Ring {
    /// Window width as a shift: `window_us = 1 << shift`, so the hot
    /// per-insert window computation is `at_us >> shift`, not a division.
    shift: u32,
    /// Slot `w & mask` holds the events of window `w`.
    slots: Vec<Vec<Ev>>,
    mask: usize,
    /// Lowest window a pending event may still occupy (cursor + 1 after
    /// each taken window) — the ring-horizon assertion's floor.
    floor: u64,
    /// Events inserted but not yet taken.
    pending: usize,
}

impl Ring {
    #[inline]
    fn insert(&mut self, ev: Ev) {
        let w = ev.at_us >> self.shift;
        debug_assert!(w >= self.floor, "event for an already-processed window");
        if (w - self.floor) as usize > self.mask {
            self.grow(w);
        }
        self.slots[w as usize & self.mask].push(ev);
        self.pending += 1;
    }

    /// Widen the ring until window `w` fits above the floor. The initial
    /// sizing covers the arrival spread plus the largest single hop, but a
    /// resumed backlog (or a deep busy cascade onto one peer) can schedule
    /// past it. Each occupied slot holds exactly one window's events —
    /// the horizon invariant held before the grow — so whole slots move,
    /// placed by their first event's window.
    #[cold]
    fn grow(&mut self, w: u64) {
        let need = ((w - self.floor) as usize + 1).next_power_of_two();
        let new_len = need.max((self.mask + 1) * 2);
        let mut slots: Vec<Vec<Ev>> = vec![Vec::new(); new_len];
        for old in self.slots.drain(..) {
            if let Some(first) = old.first() {
                let idx = (first.at_us >> self.shift) as usize & (new_len - 1);
                slots[idx] = old;
            }
        }
        self.slots = slots;
        self.mask = new_len - 1;
    }

    /// Window `w`'s bucket (possibly empty), ordered by the event key into
    /// `out` ([`order_window`]). The slot is emptied in place, so the
    /// ring's next lap reuses its capacity, and the floor advances past
    /// `w`.
    #[inline]
    fn take(&mut self, w: u64, counts: &mut Vec<u32>, out: &mut Vec<Ev>) {
        self.floor = w + 1;
        let slot = &mut self.slots[w as usize & self.mask];
        order_window(slot, w, self.shift, counts, out);
        self.pending -= slot.len();
        slot.clear();
    }
}

/// A window is ordered by counting on at most this many bits of the
/// offset inside it, so the count array stays ≤ 1 024 entries for any
/// window width; a wider window leaves more events per count to compare.
const COUNT_BITS: u32 = 10;

/// Order window `w`'s bucket `evs` by the event key into `out`. Every
/// event of the bucket lies in `[w << shift, (w + 1) << shift)` — the
/// ring's horizon invariant — so the key's order is the offset inside the
/// window, then `(qid, step)`. One counting pass on the offset's top ≤
/// [`COUNT_BITS`] bits scatters the bucket into runs, one per count, and
/// only the few events of one run are compared. `counts` and `out` are
/// scratch, reused from window to window.
fn order_window(evs: &[Ev], w: u64, shift: u32, counts: &mut Vec<u32>, out: &mut Vec<Ev>) {
    out.clear();
    let Some(&first) = evs.first() else { return };
    let low = shift.saturating_sub(COUNT_BITS);
    let digit = |e: &Ev| ((e.at_us & ((1 << shift) - 1)) >> low) as usize;
    counts.clear();
    counts.resize((1 << (shift - low)) + 1, 0);
    for e in evs {
        debug_assert_eq!(e.at_us >> shift, w, "an event outside its window's bucket");
        counts[digit(e) + 1] += 1;
    }
    counts.iter_mut().fold(0, |sum, c| {
        *c += sum;
        *c
    });
    // `counts[d]` is where digit `d`'s run starts; the scatter moves it to
    // where that run ends.
    out.resize(evs.len(), first);
    for e in evs {
        let at = &mut counts[digit(e)];
        out[*at as usize] = *e;
        *at += 1;
    }
    let mut start = 0;
    for &end in counts.iter() {
        let run = &mut out[start..end as usize];
        if run.len() > 1 {
            run.sort_unstable_by_key(Ev::key128);
        }
        start = end as usize;
    }
}

/// Stride-indexed peer slots.
impl SimState for Shard {
    #[inline]
    fn busy_mut(&mut self, peer: u32) -> &mut u64 {
        &mut self.busy[peer as usize / self.shards]
    }
    #[inline]
    fn qstate_mut(&mut self, qid: u32) -> &mut QState {
        &mut self.qstate[qid as usize]
    }
}

impl Shard {
    /// Process one sorted window bucket. Independent of the other shards'
    /// buckets of the same window: the lookahead invariant guarantees no
    /// emission lands inside it.
    fn run_evs(&mut self, evs: &[Ev], ctx: &RunCtx<'_>, emit: &mut impl FnMut(Ev)) {
        self.events += evs.len() as u64;
        for &ev in evs {
            debug_assert_eq!(ev.peer as usize % self.shards, self.id, "event on wrong shard");
            ctx.handle(ev, self, emit);
        }
    }
}

/// The sharded windowed core; the [`ScaleOutcome`] is identical for every
/// shard count.
pub fn run_sharded(topo: &Topology, cfg: &ScaleConfig) -> (ScaleOutcome, ScaleRun) {
    sharded_core(topo, cfg, None)
}

/// Resume a paused run ([`run_serial_until`]) on the windowed core — any
/// shard count; the [`ScaleOutcome`] matches the uninterrupted serial run
/// bit for bit. The checkpoint's global state is
/// strided back onto the shards (`busy_until` of peer `p` to shard
/// `p % shards`); per-query progress is replicated to every shard and
/// collected, as always, from the initiator's. A checkpoint that does not
/// fit `topo` and `cfg` is an error.
pub fn resume_sharded(
    topo: &Topology,
    cfg: &ScaleConfig,
    ckpt: &ScaleCheckpoint,
) -> Result<(ScaleOutcome, ScaleRun), &'static str> {
    check_fits(topo, cfg, ckpt)?;
    Ok(sharded_core(topo, cfg, Some(ckpt)))
}

fn sharded_core(
    topo: &Topology,
    cfg: &ScaleConfig,
    resume: Option<&ScaleCheckpoint>,
) -> (ScaleOutcome, ScaleRun) {
    let shards_n = cfg.shards.max(1);
    // The safety window can be as wide as the true lookahead bound: an
    // event at `t` emits at `done + latency` with `done ≥ t + service_us`,
    // so any width ≤ `service_us + link_min_us` is conservative. Take the
    // largest power of two under the bound — window arithmetic in the
    // insert hot path becomes a shift, and wider windows mean fewer
    // sweeps for the same guarantee.
    let bound_us = cfg.service_us + cfg.link_min_us.max(1);
    let shift = bound_us.ilog2();
    let window_us = 1u64 << shift;
    let ctx = build_ctx(topo, cfg);
    // Ring horizon: no pending event is ever further ahead of the cursor
    // than the initial arrival spread or one maximal handler emission
    // (service + longest local scan + max link latency).
    let max_delta_us = max_delta_us(topo, cfg);
    // Resuming: replay the pending event set instead of fresh arrivals,
    // stride the checkpointed `busy_until` back onto the shards, replicate
    // per-query progress (each query is only ever touched — and collected —
    // on its initiator's shard, so replication is safe), and start the
    // window sweep at the earliest pending window (the rings' floor must
    // match, or the horizon assertion would reject far-future arrivals).
    let pending: Vec<Ev> = match resume {
        None => initial_events(&ctx),
        Some(ck) => ck.pending.clone(),
    };
    let w0 = match resume {
        None => 0,
        Some(_) => pending.iter().map(|e| e.at_us >> shift).min().unwrap_or(0),
    };
    // A fresh ring only has to absorb the arrival spread (and one maximal
    // handler emission). A resumed one starts with a pending set — and
    // per-peer service backlogs — that a mid-run cut can leave arbitrarily
    // far above the earliest pending window, so the horizon additionally
    // covers the checkpoint's own span above `w0`.
    let resume_span_w = match resume {
        None => 0,
        Some(ck) => {
            let max_pend_w = pending.iter().map(|e| e.at_us >> shift).max().unwrap_or(0);
            let max_busy_w = ck.busy.iter().copied().max().unwrap_or(0) >> shift;
            max_pend_w.max(max_busy_w).saturating_sub(w0)
        }
    };
    let horizon =
        (cfg.arrival_spread_us / window_us).max(max_delta_us / window_us) + 2 + resume_span_w;
    let ring_len = (horizon as usize).next_power_of_two();
    let base_qstate: Vec<QState> = match resume {
        None => vec![QState::default(); cfg.queries],
        Some(ck) => ck.qstate.clone(),
    };
    let mut shards: Vec<Shard> = (0..shards_n)
        .map(|id| Shard {
            id,
            shards: shards_n,
            busy: vec![0u64; topo.peer_count().div_ceil(shards_n)],
            qstate: base_qstate.clone(),
            events: 0,
            windows_swept: 0,
            empty_windows: 0,
        })
        .collect();
    if let Some(ck) = resume {
        for (p, &b) in ck.busy.iter().enumerate() {
            shards[p % shards_n].busy[p / shards_n] = b;
        }
    }
    let mut rings: Vec<Ring> = (0..shards_n)
        .map(|_| Ring {
            shift,
            slots: vec![Vec::new(); ring_len],
            mask: ring_len - 1,
            floor: w0,
            pending: 0,
        })
        .collect();
    for ev in pending {
        rings[ev.peer as usize % shards_n].insert(ev);
    }

    run_windows(&ctx, &mut shards, &mut rings, w0);

    // Each query's progress lives on its initiator's shard; collect from
    // there.
    let mut events = resume.map_or(0, |ck| ck.events);
    for sh in &shards {
        events += sh.events;
    }
    let qstate: Vec<QState> = (0..cfg.queries)
        .map(|q| shards[ctx.qinfo[q].initiator as usize % shards_n].qstate[q])
        .collect();
    let run = ScaleRun {
        shards: shards_n,
        events,
        events_per_shard: shards.iter().map(|s| s.events).collect(),
        windows_swept: shards.iter().map(|s| s.windows_swept).sum(),
        empty_windows: shards.iter().map(|s| s.empty_windows).sum(),
    };
    (finish(&ctx, &qstate, events), run)
}

/// The window loop: sweep the calendars window by window (an empty slot
/// costs one `take` of nothing), stop when no ring has pending
/// events. Emissions insert **directly** into the destination
/// shard's ring — no outbox, no second pass — which is legal mid-window
/// because the lookahead invariant puts every emission in a later window
/// than any bucket still to be processed this sweep.
fn run_windows(ctx: &RunCtx<'_>, shards: &mut [Shard], rings: &mut [Ring], w0: u64) {
    let n = shards.len();
    let shift = rings[0].shift;
    // The bucket being processed, in key order, and the counts that
    // ordered it: one of each for the whole run.
    let (mut counts, mut evs) = (Vec::new(), Vec::new());
    let mut w = w0;
    while rings.iter().any(|r| r.pending > 0) {
        for i in 0..n {
            rings[i].take(w, &mut counts, &mut evs);
            shards[i].windows_swept += 1;
            if evs.is_empty() {
                shards[i].empty_windows += 1;
                continue;
            }
            let (sh, rings) = (&mut shards[i], &mut *rings);
            sh.run_evs(&evs, ctx, &mut |e| {
                debug_assert!(
                    e.at_us >> shift > w,
                    "lookahead violation: emission into the current window"
                );
                rings[e.peer as usize % n].insert(e);
            });
        }
        w += 1;
    }
}

// ----------------------------------------------------------------------
// RSS helper (Linux, dependency-free)
// ----------------------------------------------------------------------

/// Current resident set size (`VmRSS` from `/proc/self/status`); `None`
/// off Linux.
pub fn rss_now_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sqo_overlay::hash::hash_str;
    use sqo_overlay::network::NetworkConfig;

    #[derive(Debug, Clone)]
    struct W(String);
    impl Item for W {
        fn size_bytes(&self) -> usize {
            self.0.len()
        }
    }

    fn small_net() -> Network<W> {
        let data: Vec<(Key, W)> =
            (0..400).map(|i| (hash_str(&format!("w{i:04}")), W(format!("w{i:04}")))).collect();
        Network::build(
            NetworkConfig { peers: 96, replication: 3, seed: 11, ..NetworkConfig::default() },
            data,
        )
    }

    #[test]
    fn serial_and_sharded_agree_bit_for_bit() {
        let net = small_net();
        let topo = Topology::of_network(&net);
        let cfg = ScaleConfig { queries: 64, arrival_spread_us: 5_000, ..Default::default() };
        let (serial, _) = run_serial(&topo, &cfg);
        assert_eq!(serial.queries_done, 64, "all queries complete: {serial:?}");
        for shards in [1usize, 2, 3, 4] {
            let (out, run) = run_sharded(&topo, &ScaleConfig { shards, ..cfg });
            assert_eq!(out, serial, "shards={shards} diverged");
            assert_eq!(run.shards, shards);
        }
    }

    /// Pause a serial run mid-flight, then finish it with `resume_serial`
    /// and `resume_sharded` at every shard count: every path must land on
    /// the exact `ScaleOutcome` of the uninterrupted run.
    #[test]
    fn checkpoint_resume_matches_the_uninterrupted_run() {
        let net = small_net();
        let topo = Topology::of_network(&net);
        let cfg = ScaleConfig { queries: 64, arrival_spread_us: 5_000, ..Default::default() };
        let (full, _) = run_serial(&topo, &cfg);
        assert_eq!(full.queries_done, 64);

        let ckpt = match run_serial_until(&topo, &cfg, 2_500) {
            ScalePhase::Paused(ck) => ck,
            ScalePhase::Done(..) => panic!("2.5ms cut should land mid-run"),
        };
        assert!(!ckpt.pending.is_empty(), "mid-run checkpoint has pending events");
        assert!(ckpt.events > 0 && ckpt.events < full.events);

        let (resumed, _) = resume_serial(&topo, &cfg, &ckpt).expect("the checkpoint fits");
        assert_eq!(resumed, full, "serial resume diverged");

        for shards in [1usize, 2, 4] {
            let (out, run) = resume_sharded(&topo, &ScaleConfig { shards, ..cfg }, &ckpt)
                .expect("the checkpoint fits");
            assert_eq!(out, full, "shards={shards} resume diverged");
            assert_eq!(run.events_per_shard.iter().sum::<u64>(), run.events - ckpt.events);
        }
    }

    /// A checkpoint that does not fit the run it is resumed into — a busy
    /// slot short, a pending event at a peer or for a query the run does
    /// not have — is refused by both engines instead of indexing out of
    /// range.
    #[test]
    fn a_foreign_checkpoint_is_an_error_not_a_panic() {
        let net = small_net();
        let topo = Topology::of_network(&net);
        let cfg = ScaleConfig { queries: 64, arrival_spread_us: 5_000, ..Default::default() };
        let ckpt = match run_serial_until(&topo, &cfg, 2_500) {
            ScalePhase::Paused(ck) => ck,
            ScalePhase::Done(..) => panic!("2.5ms cut should land mid-run"),
        };
        let mut short = ckpt.clone();
        short.busy.pop();
        let mut far_peer = ckpt.clone();
        far_peer.pending[0].peer = topo.peer_count() as u32;
        let mut far_query = ckpt.clone();
        far_query.pending[0].qid = u32::MAX;
        for (what, foreign) in [("busy", short), ("peer", far_peer), ("query", far_query)] {
            assert!(resume_serial(&topo, &cfg, &foreign).is_err(), "serial, {what}");
            let sharded = ScaleConfig { shards: 2, ..cfg };
            assert!(resume_sharded(&topo, &sharded, &foreign).is_err(), "sharded, {what}");
        }
        assert!(resume_serial(&topo, &ScaleConfig { queries: 63, ..cfg }, &ckpt).is_err());
    }

    /// A checkpoint whose pending clock or step, busy horizon or event
    /// count lies near the top of its integer range — or beyond what the
    /// run's own processed events could have reached — is an error:
    /// resumed, the handler's arithmetic would overflow, or the sharded
    /// core would size its ring from the clock.
    #[test]
    fn a_checkpoint_near_the_integer_limits_is_an_error_not_a_panic() {
        let net = small_net();
        let topo = Topology::of_network(&net);
        let cfg = ScaleConfig { queries: 64, arrival_spread_us: 5_000, ..Default::default() };
        let ckpt = match run_serial_until(&topo, &cfg, 2_500) {
            ScalePhase::Paused(ck) => ck,
            ScalePhase::Done(..) => panic!("2.5ms cut should land mid-run"),
        };
        let edit = |change: &dyn Fn(&mut ScaleCheckpoint)| {
            let mut ck = ckpt.clone();
            change(&mut ck);
            ck
        };
        let last = ckpt.pending.len() - 1;
        for (what, hostile) in [
            ("a pending clock", edit(&|ck| ck.pending[last].at_us = u64::MAX - 1)),
            ("a pending step", edit(&|ck| ck.pending[0].step = u32::MAX)),
            ("a busy horizon", edit(&|ck| ck.busy[0] = u64::MAX)),
            ("the event count", edit(&|ck| ck.events = u64::MAX)),
            ("a clock out of reach", edit(&|ck| ck.pending[last].at_us = 1 << 50)),
            ("a horizon out of reach", edit(&|ck| ck.busy[0] = 1 << 50)),
        ] {
            assert!(resume_serial(&topo, &cfg, &hostile).is_err(), "serial, {what}");
            let sharded = ScaleConfig { shards: 2, ..cfg };
            assert!(resume_sharded(&topo, &sharded, &hostile).is_err(), "sharded, {what}");
        }
        assert!(resume_sharded(&topo, &ScaleConfig { shards: 2, ..cfg }, &ckpt).is_ok());
    }

    /// A cut past the last event is just the whole run.
    #[test]
    fn pause_after_the_horizon_completes() {
        let net = small_net();
        let topo = Topology::of_network(&net);
        let cfg = ScaleConfig { queries: 16, arrival_spread_us: 1_000, ..Default::default() };
        let (full, _) = run_serial(&topo, &cfg);
        match run_serial_until(&topo, &cfg, u64::MAX) {
            ScalePhase::Done(out, _) => assert_eq!(out, full),
            ScalePhase::Paused(_) => panic!("nothing left to pause on"),
        }
    }

    #[test]
    fn showers_fan_out_and_still_complete() {
        let net = small_net();
        let topo = Topology::of_network(&net);
        let cfg = ScaleConfig {
            queries: 32,
            shower_trim_bits: 3,
            arrival_spread_us: 2_000,
            ..Default::default()
        };
        let (showered, _) = run_serial(&topo, &cfg);
        assert_eq!(showered.queries_done, 32);
        // Shallow prefixes shower: strictly more events than exact-path
        // lookups of the same workload.
        let exact = ScaleConfig { shower_trim_bits: 0, ..cfg };
        let (exact_out, _) = run_serial(&topo, &exact);
        assert!(showered.events > exact_out.events, "{} vs {}", showered.events, exact_out.events);
    }

    #[test]
    fn per_shard_telemetry_accounts_for_every_event() {
        let net = small_net();
        let topo = Topology::of_network(&net);
        let cfg =
            ScaleConfig { queries: 64, shards: 4, arrival_spread_us: 5_000, ..Default::default() };
        let (out, run) = run_sharded(&topo, &cfg);
        assert_eq!((run.shards, run.events_per_shard.len()), (4, 4));
        assert_eq!(run.events_per_shard.iter().sum::<u64>(), run.events);
        assert!(run.windows_swept > 0, "windows were swept");
        assert!(run.windows_swept >= run.empty_windows);

        // The telemetry is observation only: the deterministic outcome
        // still matches the serial baseline.
        let (serial, serial_run) = run_serial(&topo, &cfg);
        assert_eq!(out, serial);
        assert_eq!(serial_run.events_per_shard, vec![serial_run.events]);
    }

    proptest! {
        /// The counting order of a window is the event key's order: on
        /// buckets of one event to a few hundred, with all offsets equal
        /// (`same`, or a one-µs window) or spread, and on windows up to
        /// 2²⁰ µs wide, far past the count array's 2¹⁰ entries. The scratch
        /// is reused from a previous bucket, as the window loop does.
        #[test]
        fn a_window_is_ordered_as_its_keys_sort(
            draws in prop::collection::vec((0u64..1 << 20, 0u32..24, 0u32..24), 1..400),
            shift in 0u32..21,
            w in 0u64..1 << 30,
            same in any::<bool>(),
        ) {
            let mut seen = std::collections::BTreeSet::new();
            let evs: Vec<Ev> = draws
                .iter()
                .filter(|(_, qid, step)| seen.insert((*qid, *step)))
                .map(|&(offset, qid, step)| Ev {
                    at_us: (w << shift) | ((if same { draws[0].0 } else { offset }) & ((1 << shift) - 1)),
                    qid,
                    step,
                    peer: step % 5,
                    kind: EvKind::Query,
                })
                .collect();
            let mut want = evs.clone();
            want.sort_unstable_by_key(Ev::key128);
            let (mut counts, mut out) = (Vec::new(), Vec::new());
            order_window(&want[want.len() / 2..], w, shift, &mut counts, &mut out);
            order_window(&evs, w, shift, &mut counts, &mut out);
            prop_assert_eq!(out, want);
        }
    }

    #[test]
    fn rss_helper_reports_on_linux() {
        if let Some(now) = rss_now_bytes() {
            assert!(now > 0);
        }
    }
}
