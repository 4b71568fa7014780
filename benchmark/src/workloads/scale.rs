//! `scale-core`: retrieve queries on the per-message, windowed, sharded
//! event core (`run_sharded`) over a 10 000-peer topology.
//!
//! Why. This core shares no code path with the driver the other workloads
//! go through, and ROADMAP's "one event core" decision needs both on one
//! ruler. `ScaleOutcome` exposes neither bytes nor a latency distribution,
//! so `kb_per_op` and `virt_*` are not reported here; `msgs_per_op` is
//! `ScaleOutcome::events` per query. `ScaleConfig::threads` is deliberately
//! never named, so the threaded mode stays deletable.
//!
//! One repetition is three runs of 50 000 queries, each with its own
//! seed: three slices of under a second for the pacer instead of one
//! opaque call of two (see [`crate::pace`]).

use super::{
    setup_layers, stream, Gate, Layers, Rep, SetupInfo, Size, TraceCtx, World, CORPUS_SEED,
};
use crate::pace::Pacer;
use crate::rng::derive;
use crate::span::Tracer;
use crate::surface::{
    bible_words, run_serial, run_sharded, string_rows, EngineBuilder, ScaleConfig, Topology,
};
use crate::units;

const Q: usize = 2;

pub struct Scale {
    seed: u64,
    topo: Topology,
    /// The runs of one repetition.
    runs: Vec<ScaleConfig>,
    info: SetupInfo,
}

const RUNS_PER_REP: u64 = 3;

pub fn build(seed: u64, size: Size, tr: &mut Tracer) -> Scale {
    let s = tr.begin("datasets.gen");
    let words = bible_words(size.pick(30_000, 1_000), CORPUS_SEED);
    let rows = string_rows("word", &words, "w");
    tr.end(s);
    let peers = size.pick(10_000, 256);
    let (engine, info) = super::build_engine(&rows, peers, Q, seed, EngineBuilder::new(), tr);
    // The event core runs on a read-only copy of the overlay's structure;
    // the engine itself is not needed past this point.
    let s = tr.begin("sim.Topology::of_network");
    let topo = Topology::of_network(engine.network());
    tr.end(s);
    let run = |j: u64| ScaleConfig {
        queries: size.pick(50_000, 500),
        shards: 2,
        seed: derive(derive(seed, stream::DRIVER), j),
        ..ScaleConfig::default()
    };
    Scale { seed, topo, runs: (0..RUNS_PER_REP).map(run).collect(), info }
}

impl World for Scale {
    /// The serial binary-heap core is the reference implementation: on a
    /// quarter of one run's queries it and the sharded core must agree on every
    /// field of the outcome, and every query must complete.
    fn gate(&mut self) -> Gate {
        let cfg = ScaleConfig { queries: (self.runs[0].queries / 4).max(1), ..self.runs[0] };
        let (serial, _) = run_serial(&self.topo, &cfg);
        let (sharded, _) = run_sharded(&self.topo, &cfg);
        let mut gate = Gate::default();
        gate.check(if serial == sharded {
            Ok(())
        } else {
            Err(format!("sharded outcome {sharded:?} differs from serial {serial:?}"))
        });
        // Count the queries themselves as attempted ops.
        gate.attempted += cfg.queries as u64 - 1;
        let undone = cfg.queries as u64 - sharded.queries_done.min(cfg.queries as u64);
        if undone > 0 {
            gate.failed += undone;
            gate.notes.push(format!("{undone} of {} gate queries never completed", cfg.queries));
        }
        gate
    }

    fn rep(&mut self, tr: &mut Tracer, pacer: &mut Pacer) -> Rep {
        let (mut ops, mut done, mut events, mut fingerprint) = (0u64, 0u64, 0u64, 0u64);
        let (mut windows, mut empty) = (0u64, 0u64);
        let mut per_shard: Vec<u64> = Vec::new();
        let root = tr.begin("workload");
        for cfg in &self.runs {
            pacer.begin(tr);
            let s = tr.begin("sim.run_sharded");
            let (outcome, run) = run_sharded(&self.topo, cfg);
            tr.end(s);
            pacer.end(tr);
            ops += cfg.queries as u64;
            done += outcome.queries_done.min(cfg.queries as u64);
            events += outcome.events;
            // The completion times are part of the model: a change to the
            // event order shows here even though no latency is reported.
            fingerprint = fingerprint.rotate_left(7) ^ outcome.checksum ^ outcome.sum_done_us;
            windows += run.windows_swept;
            empty += run.empty_windows;
            per_shard.resize(per_shard.len().max(run.events_per_shard.len()), 0);
            for (sum, x) in per_shard.iter_mut().zip(&run.events_per_shard) {
                *sum += x;
            }
        }
        tr.end(root);

        let mut counts: std::collections::BTreeMap<&'static str, f64> = Default::default();
        counts.insert("overlay.messages", events as f64 / ops as f64);
        counts.insert("sim.scale.empty_window_share", empty as f64 / windows.max(1) as f64);
        let mean = events as f64 / per_shard.len().max(1) as f64;
        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
        counts.insert("sim.scale.shard_imbalance", if mean > 0.0 { max / mean } else { 0.0 });
        Rep { ops, msgs: events, failed: ops - done, counts, fingerprint, ..Rep::timed(pacer) }
    }

    fn layers(&mut self, ctx: &TraceCtx<'_>, out: &mut Layers) {
        let (rep, size) = (ctx.rep, ctx.size);
        let useed = derive(self.seed, stream::UNITS);
        setup_layers(&self.info, ctx, out);
        out.insert(
            "sim.scale.topology_s",
            ctx.tr.total_s("sim.Topology::of_network") * ctx.setup_factor,
        );
        out.insert("sim.scale.sharded_events_per_s", rep.msgs as f64 / rep.norm_s);
        out.insert("sim.host_ns_per_msg", rep.norm_s * 1e9 / rep.msgs.max(1) as f64);
        out.insert("core.exec_s", rep.norm_s);
        // The heap core on one run of the repetition (it is ~4× slower per
        // event, and one run keeps the heap deep enough to count).
        let mut pacer = size.pacer();
        pacer.begin(&mut Tracer::off());
        let (serial, _) = run_serial(&self.topo, &self.runs[0]);
        pacer.end(&mut Tracer::off());
        out.insert("sim.scale.serial_events_per_s", serial.events as f64 / pacer.normalised_s());
        out.insert("sim.event_queue_ns_d16", units::event_queue_ns(16, useed, size));
        out.insert("sim.event_queue_ns_d10k", units::event_queue_ns(10_000, useed, size));
    }
}
