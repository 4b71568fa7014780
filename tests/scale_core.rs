//! Tier-1 pins on the scale core (`sqo::sim::scale`), small enough for
//! the root test run:
//!
//! * the windowed sharded core equals the serial heap baseline bit for
//!   bit — at fixed shard counts and under a property sweep of seeds,
//!   workload shapes and shard counts,
//! * a run paused at `stop_us` and resumed — on the heap or on the
//!   windowed core — lands on the uninterrupted `ScaleOutcome`,
//! * the snapshot artifact of a fixed world and cut is byte-stable.

use proptest::prelude::*;
use sqo::core::{EngineBuilder, SimilarityEngine};
use sqo::datasets::{bible_words, string_rows};
use sqo::sim::scale::{
    resume_serial, resume_sharded, run_serial_until, ScaleCheckpoint, ScalePhase,
};
use sqo::sim::{run_serial, run_sharded, ScaleConfig, Topology};
use sqo::snap::Snapshot;
use std::sync::OnceLock;

fn engine() -> SimilarityEngine {
    let rows = string_rows("word", &bible_words(260, 7), "w");
    EngineBuilder::new().peers(64).q(2).seed(3).build_with_rows(&rows)
}

fn topology() -> &'static Topology {
    static TOPO: OnceLock<Topology> = OnceLock::new();
    TOPO.get_or_init(|| Topology::of_network(engine().network()))
}

fn workload() -> ScaleConfig {
    ScaleConfig { queries: 48, arrival_spread_us: 4_000, ..ScaleConfig::default() }
}

/// The fixed cut every pause test uses: 2 ms into a 4 ms arrival spread.
fn paused(topo: &Topology) -> ScaleCheckpoint {
    match run_serial_until(topo, &workload(), 2_000) {
        ScalePhase::Paused(ck) => ck,
        ScalePhase::Done(..) => panic!("a 2ms cut must land mid-run"),
    }
}

#[test]
fn sharded_is_bit_identical_to_serial() {
    let cfg = workload();
    let (serial, _) = run_serial(topology(), &cfg);
    assert_eq!(serial.queries_done, cfg.queries as u64);
    for shards in [1, 2, 4] {
        let (out, run) = run_sharded(topology(), &ScaleConfig { shards, ..cfg });
        assert_eq!(out, serial, "shards={shards} diverged from serial");
        assert_eq!(run.events_per_shard.len(), shards);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// For any seed, workload shape and shard count, the windowed core's
    /// outcome equals the serial baseline's — the determinism invariant
    /// the whole measurement methodology rests on.
    #[test]
    fn any_seed_any_shards_matches_serial(
        seed in 0u64..1_000,
        shards in 1usize..6,
        queries in 8usize..48,
        trim in 0u32..4,
    ) {
        let cfg = ScaleConfig {
            queries,
            seed,
            shards,
            shower_trim_bits: trim,
            arrival_spread_us: 10_000,
            ..ScaleConfig::default()
        };
        let (serial, _) = run_serial(topology(), &cfg);
        let (sharded, _) = run_sharded(topology(), &cfg);
        prop_assert_eq!(serial, sharded);
        prop_assert_eq!(serial.queries_done, queries as u64);
    }
}

#[test]
fn pause_then_resume_equals_the_uninterrupted_run() {
    let (topo, cfg) = (topology(), workload());
    let (full, _) = run_serial(topo, &cfg);
    let ckpt = paused(topo);
    assert!(ckpt.events > 0 && ckpt.events < full.events, "the cut lands mid-run");

    let (serial, _) = resume_serial(topo, &cfg, &ckpt).expect("the checkpoint fits");
    assert_eq!(serial, full, "serial resume diverged");
    for shards in [1, 2, 4] {
        let (sharded, run) =
            resume_sharded(topo, &ScaleConfig { shards, ..cfg }, &ckpt).expect("it fits");
        assert_eq!(sharded, full, "shards={shards} resume diverged");
        assert_eq!(run.events_per_shard.iter().sum::<u64>(), run.events - ckpt.events);
    }
}

/// Serial, sharded at 1, 2 and 4 shards, and a cut at `stop_us` resumed on
/// the heap and on the windows, all complete every query and agree.
fn every_engine_agrees(topo: &Topology, cfg: &ScaleConfig, stop_us: u64) {
    let (serial, _) = run_serial(topo, cfg);
    assert_eq!(serial.queries_done, cfg.queries as u64, "every query completes");
    let ckpt = match run_serial_until(topo, cfg, stop_us) {
        ScalePhase::Paused(ck) => ck,
        ScalePhase::Done(..) => panic!("the cut must land mid-run"),
    };
    let fits = "the checkpoint fits";
    assert_eq!(resume_serial(topo, cfg, &ckpt).expect(fits).0, serial, "serial resume diverged");
    for shards in [1, 2, 4] {
        let cfg = ScaleConfig { shards, ..*cfg };
        assert_eq!(run_sharded(topo, &cfg).0, serial, "shards={shards} diverged");
        let resumed = resume_sharded(topo, &cfg, &ckpt).expect(fits).0;
        assert_eq!(resumed, serial, "shards={shards} resume diverged");
    }
}

/// A one-partition network has an empty path: every query's shower is the
/// whole cover, answered by its one partition.
#[test]
fn a_one_partition_world_completes_on_every_engine() {
    let rows = string_rows("word", &bible_words(40, 7), "w");
    let engine = EngineBuilder::new().peers(1).q(2).seed(3).build_with_rows(&rows);
    let topo = Topology::of_network(engine.network());
    assert_eq!(topo.partition_count(), 1);
    every_engine_agrees(&topo, &workload(), 2_000);
}

/// Buckets of thousands of events with heavy ties in `at_us`: 2 000 queries
/// arrive within 1 ms, no link jitters, and a peer serves in 1 µs and scans
/// for free, so its busy queue does not spread the load over time. The
/// window's counting pass then has long runs per offset to order by
/// `(qid, step)`.
#[test]
fn crowded_windows_agree_with_the_heap() {
    let cfg = ScaleConfig {
        queries: 2_000,
        arrival_spread_us: 1_000,
        link_jitter_us: 0,
        service_us: 1,
        scan_us_per_item: 0,
        ..ScaleConfig::default()
    };
    every_engine_agrees(topology(), &cfg, 1_500);
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ *b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Wire-compatibility pin: overlay structure and pending scale events
/// reach the artifact byte for byte as they did before the topology
/// became the overlay's own and the checkpoint started holding the core's
/// own event type. The constant is the digest this same test body
/// printed on the parent commit (afab129, schema v3), re-measured once
/// when peers went where the data is (a new dealing and new routing
/// tables in the same wire format), once more at schema v4 (a run travels
/// as its own arrays), at v5 (a gram key's postings ascend by length,
/// then position), at v6 (the image's per-peer load table is gone) and at
/// v7 (the header alone: the driver image, which changed, is not in it);
/// otherwise re-measure it only together with a `sqo_snap::SCHEMA_VERSION`
/// bump.
#[test]
fn snapshot_bytes_of_a_fixed_world_and_cut_are_pinned() {
    let engine = engine();
    let ckpt = paused(&Topology::of_network(engine.network()));
    let bytes = Snapshot::capture(&engine).with_scale(ckpt).to_bytes();
    assert_eq!(sqo::snap::SCHEMA_VERSION, 7);
    let digest = fnv1a(&bytes);
    assert_eq!(digest, 0xdadb_f8a3_550a_b355, "{} bytes, digest {digest:#018x}", bytes.len());
}
