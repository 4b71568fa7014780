//! The correctness bar of `sqo-snap`: checkpoint → serialize → restore →
//! run-to-end must be **byte-identical** to the run that never stopped —
//! across operators and cache on/off — and forks of one warm world must
//! be mutually byte-identical.

use sqo_cache::BrokerConfig;
use sqo_core::{EngineBuilder, EngineConfig, SimilarityEngine};
use sqo_datasets::{bible_words, string_rows};
use sqo_overlay::{
    Item, Key, Network, NetworkConfig, NetworkState, PartitionStore, PeerId, SortedStore,
};
use sqo_plan::{Query, Session};
use sqo_sim::driver::{DriverCheckpoint, EvSnap};
use sqo_sim::scale::{resume_serial, resume_sharded, run_serial, run_serial_until, ScalePhase};
use sqo_sim::{
    resume_driver, run_driver, run_driver_until, seed, Arrival, DriverConfig, DriverPhase,
    DriverReport, FaultEvent, FaultKind, FaultPlan, LatencyModel, LossModel, ScaleConfig,
    SimConfig, Topology, TraceCollector,
};
use sqo_snap::{SnapError, Snapshot, SCHEMA_VERSION};
use sqo_storage::keys::one_gram_entry;
use sqo_storage::{Posting, PostingKind, Row};

fn words() -> Vec<String> {
    bible_words(260, 7)
}

fn build(words: &[String]) -> SimilarityEngine {
    let rows = string_rows("word", words, "w");
    EngineBuilder::new().peers(64).q(2).seed(3).build_with_rows(&rows)
}

fn workload(cache: BrokerConfig) -> DriverConfig {
    DriverConfig {
        clients: 4,
        queries_per_client: 3,
        // Sparse arrivals (gaps ≫ even the slowest simjoin's ~136ms): the
        // system drains between queries, so quiesce boundaries — the only
        // points the driver can pause at — exist throughout the run, not
        // just at the end. Virtual time is free.
        arrival: Arrival::Poisson { mean_interarrival_us: 500_000 },
        sim: SimConfig {
            latency: LatencyModel::Uniform { min_us: 500, max_us: 2_000 },
            ..SimConfig::default()
        },
        // One mid-workload crash wave (epochs and dead peers must survive
        // the round trip) plus a far-future one: the latter keeps the
        // queue non-empty until every query has completed, so a quiesce
        // boundary at `stop_us` is guaranteed to exist.
        faults: FaultPlan {
            events: vec![
                FaultEvent { at_us: 150_000, kind: FaultKind::Crash { fraction: 0.05 } },
                FaultEvent { at_us: 10_000_000, kind: FaultKind::Crash { fraction: 0.01 } },
            ],
        },
        cache,
        sticky_initiators: true,
        seed: 7,
        ..DriverConfig::default()
    }
}

fn json(r: &DriverReport) -> String {
    sqo_obs::to_json(r)
}

/// The tentpole pin: pause at a quiesce boundary, freeze the whole world
/// to bytes, thaw in a fresh engine, resume — the final report matches
/// the uninterrupted run byte for byte. Pinned across the cache axis (the
/// default mix already spans `similar`, `topn`, and `simjoin`).
#[test]
fn paused_run_resumes_to_a_byte_identical_report() {
    let words = words();
    for cache in [BrokerConfig::default(), BrokerConfig::enabled()] {
        let cfg = workload(cache);

        let mut uninterrupted = build(&words);
        let report = run_driver(&mut uninterrupted, "word", &words, &cfg);
        // Cut a third of the way into the measured span: with sparse
        // arrivals the driver quiesces between queries, so a boundary
        // at/after any mid-run instant exists.
        let stop = report.virtual_span_us / 3;
        let baseline = json(&report);

        let mut paused = build(&words);
        let ckpt = match run_driver_until(&mut paused, "word", &words, &cfg, stop)
            .expect("a drivable workload")
        {
            DriverPhase::Paused(ck) => ck,
            DriverPhase::Done(_) => panic!("a cut at span/3 must land mid-run"),
        };
        assert!(ckpt.run.queries_run < 12, "the pause split the workload");
        assert!(ckpt.run.queries_run > 0, "some queries completed before the cut");

        let bytes = Snapshot::capture_paused(&paused, ckpt).to_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("artifact decodes");
        let mut thawed = snap.restore_engine(paused.config());
        let resumed = resume_driver(
            &mut thawed,
            "word",
            &words,
            &cfg,
            snap.driver.clone().expect("driver image rides along"),
        )
        .expect("the checkpoint fits its workload");
        assert_eq!(
            json(&resumed),
            baseline,
            "cache={:?}: resume diverged from the uninterrupted run",
            cache.any_enabled()
        );
    }
}

/// A paused-and-resumed traced run exports the same trace as the run that
/// never stopped: one collector traces the paused run, stays on through
/// the artifact round trip, is set on the thawed network and traces the
/// rest — its JSONL and Chrome exports equal the uninterrupted run's.
#[test]
fn paused_traced_run_exports_the_uninterrupted_trace() {
    let words = words();
    for cache in [BrokerConfig::default(), BrokerConfig::enabled()] {
        let cfg = workload(cache);

        let whole = TraceCollector::shared();
        let mut uninterrupted = build(&words);
        uninterrupted.network_mut().set_trace_sink(TraceCollector::as_sink(&whole));
        let report = run_driver(&mut uninterrupted, "word", &words, &cfg);
        let stop = report.virtual_span_us / 3;

        let halves = TraceCollector::shared();
        let mut paused = build(&words);
        paused.network_mut().set_trace_sink(TraceCollector::as_sink(&halves));
        let ckpt = match run_driver_until(&mut paused, "word", &words, &cfg, stop)
            .expect("a drivable workload")
        {
            DriverPhase::Paused(ck) => ck,
            DriverPhase::Done(_) => panic!("a cut at span/3 must land mid-run"),
        };
        let bytes = Snapshot::capture_paused(&paused, ckpt).to_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("artifact decodes");
        let mut thawed = snap.restore_engine(paused.config());
        thawed.network_mut().set_trace_sink(TraceCollector::as_sink(&halves));
        let ckpt = snap.driver.clone().expect("driver image rides along");
        resume_driver(&mut thawed, "word", &words, &cfg, ckpt).expect("it fits");

        let (whole, halves) = (whole.borrow(), halves.borrow());
        let on = cache.any_enabled();
        assert!(whole.to_jsonl().contains("\"stage\""), "the run traced its plan stages");
        assert_eq!(halves.to_jsonl(), whole.to_jsonl(), "cache={on}: JSONL diverged");
        assert_eq!(
            halves.to_chrome_trace(),
            whole.to_chrome_trace(),
            "cache={on}: Chrome diverged"
        );
    }
}

/// The robustness extension of the tentpole pin: checkpoint **in the
/// middle of a fault plan** — after a crash wave, a partition wipe and a
/// revival, with a loss spike still in force and self-healing repair
/// enabled — and the resumed run must still be byte-identical to the
/// uninterrupted one. This exercises the fault/fault-clear event images,
/// the repair/phase/diagnostic checkpoint fields, and the resume-side
/// re-arming of the loss spike the image names as in force.
#[test]
fn checkpoint_mid_fault_plan_resumes_byte_identically() {
    let words = words();
    let mut cfg = workload(BrokerConfig::default());
    cfg.repair = Some(sqo_overlay::ReplicationPolicy::default());
    // Extends the workload's crash waves, which stay first in the script.
    cfg.faults.events.extend([
        FaultEvent { at_us: 80_000, kind: FaultKind::Crash { fraction: 0.1 } },
        FaultEvent { at_us: 120_000, kind: FaultKind::WipePartition { part: 3 } },
        FaultEvent {
            at_us: 400_000,
            kind: FaultKind::LossSpike {
                loss: LossModel { p: 0.1, timeout_us: 30_000, max_retries: 2 },
                duration_us: 1_500_000,
            },
        },
        FaultEvent { at_us: 900_000, kind: FaultKind::Revive { fraction: 0.5 } },
    ]);

    let mut uninterrupted = build(&words);
    let report = run_driver(&mut uninterrupted, "word", &words, &cfg);
    let baseline = json(&report);
    assert!(report.repair.is_some(), "repair totals ride the report when configured");

    // Cut inside the loss spike's window [400ms, 1.9s): the checkpoint
    // must carry the pending fault-clear and the resume must re-install
    // the spike's loss model, not the baseline.
    let mut paused = build(&words);
    let ckpt = match run_driver_until(&mut paused, "word", &words, &cfg, 1_000_000)
        .expect("a drivable workload")
    {
        DriverPhase::Paused(ck) => ck,
        DriverPhase::Done(_) => panic!("a cut at 1s must land mid-run"),
    };
    let pending_clear =
        ckpt.queue.entries.iter().any(|(_, _, ev)| matches!(ev, EvSnap::FaultClear { .. }));
    assert!(pending_clear, "the cut landed inside the loss spike");
    assert_eq!(ckpt.run.in_force, Some(4), "the image names the spike in force");
    assert!(
        !ckpt
            .queue
            .entries
            .iter()
            .any(|(at, _, ev)| matches!(ev, EvSnap::Fault { .. }) && *at < 1_000_000),
        "all scripted faults before the cut have fired"
    );

    let bytes = Snapshot::capture_paused(&paused, ckpt).to_bytes();
    let snap = Snapshot::from_bytes(&bytes).expect("artifact decodes");
    let mut thawed = snap.restore_engine(paused.config());
    let resumed = resume_driver(
        &mut thawed,
        "word",
        &words,
        &cfg,
        snap.driver.clone().expect("driver image rides along"),
    )
    .expect("the checkpoint fits its workload");
    assert_eq!(json(&resumed), baseline, "mid-fault-plan resume diverged");
}

/// A run of `workload(..)` paused at its first quiesce boundary after 1 s,
/// and the engine it paused on.
fn paused_run(words: &[String]) -> (SimilarityEngine, DriverCheckpoint) {
    let mut engine = build(words);
    let cfg = workload(BrokerConfig::default());
    match run_driver_until(&mut engine, "word", words, &cfg, 1_000_000)
        .expect("a drivable workload")
    {
        DriverPhase::Paused(ck) => (engine, ck),
        DriverPhase::Done(_) => panic!("a cut at 1s must land mid-run"),
    }
}

/// The artifact does not carry the `DriverConfig`, so `resume_driver`
/// checks what its checkpoint was cut under: a client count other than
/// the config's is an `Err`, not a panic in the loop. The refusal leaves
/// the engine as it was: the right config still resumes it to the end.
#[test]
fn resume_refuses_a_checkpoint_of_another_client_count() {
    let words = words();
    let (mut engine, ckpt) = paused_run(&words);
    let cfg = workload(BrokerConfig::default());
    for clients in [cfg.clients - 1, cfg.clients + 1] {
        let other = DriverConfig { clients, ..cfg.clone() };
        let got = resume_driver(&mut engine, "word", &words, &other, ckpt.clone());
        assert_eq!(got.err(), Some("checkpoint has a different client count"), "{clients}");
    }
    let report = resume_driver(&mut engine, "word", &words, &cfg, ckpt).expect("it fits");
    assert_eq!(report.queries_run, cfg.clients * cfg.queries_per_client);
}

/// A checkpoint cut on 64 peers does not fit a world of 32: its clock
/// holds a serial queue per peer. `Err`, and the engine is left as it was.
#[test]
fn resume_refuses_a_checkpoint_of_another_peer_count() {
    let words = words();
    let (_, ckpt) = paused_run(&words);
    let rows = string_rows("word", &words, "w");
    let mut other = EngineBuilder::new().peers(32).q(2).seed(3).build_with_rows(&rows);
    let cfg = workload(BrokerConfig::default());
    let got = resume_driver(&mut other, "word", &words, &cfg, ckpt);
    assert_eq!(got.err(), Some("checkpoint was taken on a network with a different peer count"));
    assert!(other.network_mut().event_sink_mut().is_none(), "the refusal installed no clock");
}

/// A pending fault names its event by index into the config's plan: a plan
/// that does not hold it — here one that lost its far-future crash wave,
/// still pending at the cut — is an `Err`, not an index panic in the loop.
#[test]
fn resume_refuses_a_pending_fault_its_plan_does_not_hold() {
    let words = words();
    let (mut engine, ckpt) = paused_run(&words);
    let mut cfg = workload(BrokerConfig::default());
    assert!(ckpt.queue.entries.iter().any(|(_, _, ev)| *ev == EvSnap::Fault { idx: 1 }));
    cfg.faults.events.truncate(1);
    let got = resume_driver(&mut engine, "word", &words, &cfg, ckpt);
    assert_eq!(got.err(), Some("checkpoint has a pending fault its plan does not hold"));
}

/// The loss spike in force must be a loss spike of the plan: an index past
/// the plan, or one naming a crash wave, is an `Err`. The refusals leave
/// the engine as it was: the image as cut still resumes it to the end.
#[test]
fn resume_refuses_a_spike_in_force_its_plan_does_not_hold() {
    let words = words();
    let (mut engine, ckpt) = paused_run(&words);
    let cfg = workload(BrokerConfig::default());
    assert_eq!(ckpt.run.in_force, None, "the workload has no loss spike");
    for idx in [0, 2] {
        let mut other = ckpt.clone();
        other.run.in_force = Some(idx);
        let got = resume_driver(&mut engine, "word", &words, &cfg, other);
        assert_eq!(
            got.err(),
            Some("checkpoint's loss spike in force is not one its plan holds"),
            "{idx}"
        );
    }
    let report = resume_driver(&mut engine, "word", &words, &cfg, ckpt).expect("it fits");
    assert_eq!(report.queries_run, cfg.clients * cfg.queries_per_client);
}

/// An empty string pool has nothing to draw a query from: `Err`.
#[test]
fn resume_refuses_an_empty_string_pool() {
    let words = words();
    let (mut engine, ckpt) = paused_run(&words);
    let cfg = workload(BrokerConfig::default());
    let got = resume_driver(&mut engine, "word", &[], &cfg, ckpt);
    assert_eq!(got.err(), Some("driver needs a non-empty string pool"));
}

/// An empty mix has no query template to assign: `Err`.
#[test]
fn resume_refuses_an_empty_mix() {
    let words = words();
    let (mut engine, ckpt) = paused_run(&words);
    let cfg = DriverConfig { mix: Vec::new(), ..workload(BrokerConfig::default()) };
    let got = resume_driver(&mut engine, "word", &words, &cfg, ckpt);
    assert_eq!(got.err(), Some("empty query mix"));
}

/// Warm one world, fork N runs off it: same-config forks are mutually
/// byte-identical, and forks re-seeded via the documented
/// `seed::derive(seed, FORK_STREAM, i)` rule actually diverge.
#[test]
fn forks_of_one_warm_world_are_mutually_byte_identical() {
    let words = words();
    let mut template = build(&words);
    // Warm it: a completed run advances the network RNG, counters, and
    // leaves a populated broker installed.
    let cfg = workload(BrokerConfig::enabled());
    run_driver(&mut template, "word", &words, &cfg);

    let bytes = Snapshot::capture(&template).to_bytes();
    let snap = Snapshot::from_bytes(&bytes).expect("artifact decodes");
    assert!(snap.world.broker.is_some(), "the warm broker is part of the world");

    let reports: Vec<String> = snap
        .fork(template.config(), 3)
        .iter_mut()
        .map(|engine| json(&run_driver(engine, "word", &words, &cfg)))
        .collect();
    assert_eq!(reports[0], reports[1], "same-config forks must agree");
    assert_eq!(reports[1], reports[2], "same-config forks must agree");

    let mut diverged = snap.restore_engine(template.config());
    let diverged_cfg = DriverConfig { seed: seed::derive(cfg.seed, seed::FORK_STREAM, 1), ..cfg };
    let other = json(&run_driver(&mut diverged, "word", &words, &diverged_cfg));
    assert_ne!(other, reports[0], "a re-seeded fork explores a different trajectory");
}

/// The scale core's image rides the same artifact: a paused serial run
/// resumes — serial or sharded — onto the exact outcome of the
/// uninterrupted run, with the topology re-derived from the restored
/// world.
#[test]
fn scale_checkpoint_rides_the_artifact_and_resumes_exactly() {
    let words = words();
    let engine = build(&words);
    let topo = Topology::of_network(engine.network());
    let cfg = ScaleConfig { queries: 48, arrival_spread_us: 4_000, ..Default::default() };
    let (full, _) = run_serial(&topo, &cfg);

    let ckpt = match run_serial_until(&topo, &cfg, 2_000) {
        ScalePhase::Paused(ck) => ck,
        ScalePhase::Done(..) => panic!("a 2ms cut must land mid-run"),
    };
    let bytes = Snapshot::capture(&engine).with_scale(ckpt).to_bytes();
    // The scale section's wire pin, measured before the codec stated each
    // record once and re-measured at v5, when gram lists began to ascend by
    // (length, position), at v6, when the network image lost its per-peer
    // load table, and at v7, for its header alone; re-measure only with a
    // `SCHEMA_VERSION` bump.
    assert_eq!(fnv1a(&bytes), 0xdadb_f8a3_550a_b355, "scale artifact {:#018x}", fnv1a(&bytes));
    let snap = Snapshot::from_bytes(&bytes).expect("artifact decodes");
    let ckpt = snap.scale.as_ref().expect("scale image rides along");

    let thawed = snap.restore_engine(engine.config());
    let topo2 = Topology::of_network(thawed.network());
    let (serial, _) = resume_serial(&topo2, &cfg, ckpt).expect("the checkpoint fits");
    assert_eq!(serial, full, "serial resume diverged");
    let sharded_cfg = ScaleConfig { shards: 2, ..cfg };
    let (sharded, _) = resume_sharded(&topo2, &sharded_cfg, ckpt).expect("it fits");
    assert_eq!(sharded, full, "sharded resume diverged");

    // A pending event whose kind tag names no `EvKind` is refused at
    // decode time. The scale image follows the world and the driver's
    // `None` tag: stop_us u64, count u64, then 25-byte events (at u64,
    // qid/step/peer u32, kind u8, of u32).
    let kind_at = Snapshot::capture(&engine).to_bytes().len() + 16 + 20;
    let mut damaged = bytes.clone();
    assert!(damaged[kind_at] <= 2, "a kind tag sits where the layout says");
    damaged[kind_at] = 3;
    let err = Snapshot::from_bytes(&damaged).map(|_| ()).unwrap_err();
    assert!(matches!(err, SnapError::Corrupt(_)), "kind 3: got {err:?}");
}

/// A world restored under another network config is refused with a typed
/// error — every field of the network config counts — and restored under
/// its own it is the world captured.
#[test]
fn a_restore_under_another_network_config_is_a_config_mismatch() {
    let words = words();
    let engine = build(&words);
    let snap = Snapshot::from_bytes(&Snapshot::capture(&engine).to_bytes()).expect("decodes");
    let network = engine.config().network.clone();
    for other in [
        NetworkConfig { seed: network.seed + 1, ..network.clone() },
        NetworkConfig { peers: network.peers + 1, ..network.clone() },
        NetworkConfig { replication: network.replication + 1, ..network.clone() },
        NetworkConfig { msg_header_bytes: network.msg_header_bytes + 1, ..network.clone() },
    ] {
        let cfg = EngineConfig { network: other, ..engine.config().clone() };
        let err = snap.try_restore_engine(&cfg).err().expect("another network config");
        assert_eq!(err, SnapError::ConfigMismatch);
        assert_eq!(err.exit_code(), 3);
        let panicked = std::panic::catch_unwind(|| snap.restore_engine(&cfg)).err();
        let message = panicked.and_then(|p| p.downcast::<String>().ok()).expect("it panics");
        assert_eq!(*message, SnapError::ConfigMismatch.to_string());
    }
    let restored = snap.try_restore_engine(engine.config()).expect("its own config");
    assert_eq!(
        Snapshot::capture(&restored).to_bytes(),
        Snapshot::capture(&engine).to_bytes(),
        "restored under its own config, the world is the captured one"
    );
}

/// The artifact is a fixed point of decode→encode, and the envelope
/// refuses foreign or damaged input without panicking.
#[test]
fn envelope_is_versioned_and_decode_is_total() {
    let words = words();
    let engine = build(&words);
    let bytes = Snapshot::capture(&engine).to_bytes();

    let reencoded = Snapshot::from_bytes(&bytes).expect("decodes").to_bytes();
    assert_eq!(reencoded, bytes, "decode→encode is a fixed point");

    assert_eq!(Snapshot::from_bytes(b"").unwrap_err(), SnapError::BadMagic);
    assert_eq!(Snapshot::from_bytes(b"not a snapshot").unwrap_err(), SnapError::BadMagic);
    assert_eq!(SnapError::BadMagic.exit_code(), 3);

    let mut skewed = bytes.clone();
    skewed[4..8].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
    let err = Snapshot::from_bytes(&skewed).unwrap_err();
    assert_eq!(
        err,
        SnapError::SchemaMismatch { found: SCHEMA_VERSION + 1, expected: SCHEMA_VERSION }
    );
    assert_eq!(err.exit_code(), 3, "a version skew is a mismatch, not damage");
    // An artifact written before the lane and uniform-selection bytes left
    // the wire (v2), while runs travelled as key and list tables (v3), or
    // while the driver had a churn event (tag 1, a fault to v7) and no spike
    // in force (v6: the issued counts would be read from its byte), is
    // refused by its header, never mis-decoded.
    assert_eq!(SCHEMA_VERSION, 7);
    for old in [2, 3, 6] {
        skewed[4..8].copy_from_slice(&u32::to_le_bytes(old));
        assert_eq!(
            Snapshot::from_bytes(&skewed).unwrap_err(),
            SnapError::SchemaMismatch { found: old, expected: SCHEMA_VERSION }
        );
    }

    // Truncations and trailing garbage fail with an error, never a panic.
    for cut in [bytes.len() / 2, bytes.len() - 3] {
        assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} must fail");
    }
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(matches!(trailing, ref b if Snapshot::from_bytes(b).is_err()));
}

/// A damaged driver queue fails at decode time instead of decoding
/// cleanly and tripping `EventQueue::from_state`'s asserts inside
/// `resume_driver`: a pending entry whose sequence number is not below the
/// counter, one scheduled before the queue clock, an arrival for a client
/// the checkpoint carries no RNG stream for, a spike-in-force tag that is
/// neither `None` nor `Some`, a client stream in the all-zero state (which
/// `StdRng::from_state_words` panics on), and a per-operator accumulator
/// under a label no `QueryKind` has are all `Corrupt`.
#[test]
fn damaged_driver_queue_is_corrupt_not_a_resume_panic() {
    let words = words();
    let cfg = workload(BrokerConfig::default());
    let mut paused = build(&words);
    let ckpt = match run_driver_until(&mut paused, "word", &words, &cfg, 1_000_000)
        .expect("a drivable workload")
    {
        DriverPhase::Paused(ck) => ck,
        DriverPhase::Done(_) => panic!("a cut at 1s must land mid-run"),
    };
    let arrive = ckpt
        .queue
        .entries
        .iter()
        .position(|(_, _, ev)| matches!(ev, EvSnap::Arrive { .. }))
        .expect("a mid-run cut leaves arrivals pending");
    let label = ckpt.run.by_operator.first().expect("a query completed before the cut").0;
    let pending = ckpt.queue.entries.len();
    let stream: Vec<u8> =
        ckpt.run.client_rngs[0].state_words().iter().flat_map(|w| w.to_le_bytes()).collect();
    // The driver image follows the world: a driver-less artifact of the
    // same world ends in two `None` tags, so its length locates the
    // driver's `Some` tag. Then: seq u64, now_us u64, entry count u64,
    // 21-byte entries (at u64, seq u64, tag u8, index u32), and the spike
    // in force's option tag.
    let tag = Snapshot::capture(&paused).to_bytes().len() - 2;
    let bytes = Snapshot::capture_paused(&paused, ckpt).to_bytes();
    assert_eq!(bytes[tag], 1, "driver image present");
    assert!(Snapshot::from_bytes(&bytes).is_ok());
    let (seq_at, now_at) = (tag + 1, tag + 9);
    let client_at = tag + 25 + arrive * 21 + 17;
    let in_force_at = tag + 25 + pending * 21;
    assert_eq!(bytes[in_force_at], 0, "no spike in force");
    let stream_at =
        tag + bytes[tag..].windows(32).position(|w| w == stream).expect("client 0's stream");
    // Labels travel length-prefixed; the first one in the driver image.
    let prefixed = [&(label.len() as u64).to_le_bytes()[..], label.as_bytes()].concat();
    let label_at = tag
        + 8
        + bytes[tag..].windows(prefixed.len()).position(|w| w == prefixed).expect("label bytes");

    let patched = |at: usize, with: &[u8]| {
        let mut b = bytes.clone();
        b[at..at + with.len()].copy_from_slice(with);
        Snapshot::from_bytes(&b).map(|_| ()).unwrap_err()
    };
    for (what, err) in [
        ("seq counter below its entries", patched(seq_at, &0u64.to_le_bytes())),
        ("clock past its entries", patched(now_at, &u64::MAX.to_le_bytes())),
        ("arrival for an unknown client", patched(client_at, &u32::MAX.to_le_bytes())),
        ("spike in force tag out of range", patched(in_force_at, &[2])),
        ("a client stream in the all-zero state", patched(stream_at, &[0; 32])),
        ("operator label outside the driver's set", patched(label_at, b"?")),
    ] {
        assert!(matches!(err, SnapError::Corrupt(_)), "{what}: got {err:?}");
        assert_eq!(err.exit_code(), 2);
    }
}

/// A run whose arrays disagree — an end past its postings, ends that do not
/// rise, keys out of order or twice, a bit length that does not tile the
/// key bytes — fails at decode time: runs are built while decoding, through
/// the one constructor that checks them, so there is no inconsistent image
/// for `restore_engine` to die on.
#[test]
fn a_store_entry_out_of_range_or_out_of_order_is_corrupt_not_a_restore_panic() {
    let engine = build(&words());
    let snap = Snapshot::capture(&engine);
    let bytes = snap.to_bytes();
    // A run whose first two keys are as long as each other. The codec
    // spells a run as its key bytes (length-prefixed), then its keys' bit
    // lengths and its ends, each a count and `u32`s, then its postings.
    let stores = snap.world.net.stores();
    let run = stores
        .iter()
        .find(|run| {
            let lens: Vec<usize> = run.keys().take(2).map(|k| k.len()).collect();
            lens.len() == 2 && lens[0] == lens[1]
        })
        .expect("a run with two keys of one length");
    let n = (run.len() as u64).to_le_bytes();
    let words =
        |of: &mut dyn Iterator<Item = u32>| of.flat_map(u32::to_le_bytes).collect::<Vec<_>>();
    let bits = words(&mut run.keys().map(|k| k.len() as u32));
    let ends = words(&mut run.ends().iter().copied());
    let arrays = [run.key_bytes(), &n[..], &bits[..], &n[..], &ends[..]].concat();
    let keys_at = bytes.windows(arrays.len()).position(|w| w == arrays).expect("the run's arrays");
    let key_len = run.keys().next().expect("two keys").as_bytes().len();
    let bits_at = keys_at + run.key_bytes().len() + 8;
    let ends_at = bits_at + bits.len() + 8;

    let damaged = |edit: &dyn Fn(&mut [u8])| {
        let mut b = bytes.clone();
        edit(&mut b);
        Snapshot::from_bytes(&b).map(|_| ()).unwrap_err()
    };
    let last_end = ends_at + ends.len() - 4;
    for (what, err) in [
        (
            "an end past the postings",
            damaged(&|b| b[last_end..last_end + 4].copy_from_slice(&u32::MAX.to_le_bytes())),
        ),
        ("two ends swapped", damaged(&|b| b[ends_at..ends_at + 8].rotate_left(4))),
        ("an empty entry", damaged(&|b| b.copy_within(ends_at..ends_at + 4, ends_at + 4))),
        ("two keys swapped", damaged(&|b| b[keys_at..keys_at + 2 * key_len].rotate_left(key_len))),
        ("a key twice", damaged(&|b| b.copy_within(keys_at..keys_at + key_len, keys_at + key_len))),
        ("a bit length that does not tile", damaged(&|b| b[bits_at] = b[bits_at].wrapping_add(8))),
    ] {
        assert!(matches!(err, SnapError::Corrupt(_)), "{what}: got {err:?}");
        assert_eq!(err.exit_code(), 2);
    }
}

/// A v4 artifact is refused by its header: its layout is v5's, but its
/// gram lists were written in publication order, which runs since v5 do
/// not keep, so decoding it could refuse it half-way or — worse — accept
/// a run whose windows miss survivors.
#[test]
fn a_v4_header_is_refused_as_a_schema_mismatch() {
    let mut bytes = Snapshot::capture(&build(&words())).to_bytes();
    bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
    let err = Snapshot::from_bytes(&bytes).map(|_| ()).unwrap_err();
    assert_eq!(err, SnapError::SchemaMismatch { found: 4, expected: SCHEMA_VERSION });
    assert_eq!(err.exit_code(), 3);
}

/// A v5 artifact is refused by its header: it carries the per-peer load
/// table, the latency profiles' per-kind sums, the clock's high-water time
/// and lifetime totals and the channel pool's counts, which v6 dropped, so
/// a v6 decoder would read them as the fields that follow.
#[test]
fn a_v5_header_is_refused_as_a_schema_mismatch() {
    let mut bytes = Snapshot::capture(&build(&words())).to_bytes();
    bytes[4..8].copy_from_slice(&5u32.to_le_bytes());
    let err = Snapshot::from_bytes(&bytes).map(|_| ()).unwrap_err();
    assert_eq!(err, SnapError::SchemaMismatch { found: 5, expected: SCHEMA_VERSION });
    assert_eq!(err.exit_code(), 3);
}

/// The postings of one posting sequence as the codec spells them: kind
/// tag, triple index, then a base kind byte, or a gram (length-prefixed),
/// its position and — for an instance gram — the carries-value flag. The
/// byte range of each of `count` postings from `at`.
fn posting_spans(bytes: &[u8], mut at: usize, count: usize) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::with_capacity(count);
    for _ in 0..count {
        let start = at;
        let tag = bytes[at];
        at += 1 + 4;
        let gram = |at: usize| {
            let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            8 + len + 4
        };
        at += match tag {
            0 => 1,
            1 => gram(at) + 1,
            2 => gram(at),
            _ => 0,
        };
        spans.push(start..at);
    }
    spans
}

/// A gram entry whose postings are out of (length, position) order is
/// `Corrupt` at decode time — the image's check (`NetworkState::new`, the
/// one a live network runs on itself) checks the order of every run — so
/// no restored owner ever bisects a list that is not sorted and answers
/// short. The damage is two neighbouring postings of one entry, of
/// different rank, swapped byte for byte: every posting still fits its
/// triple, every array still agrees with the others.
#[test]
fn a_gram_entry_with_two_postings_swapped_is_corrupt() {
    let engine = build(&words());
    let snap = Snapshot::capture(&engine);
    let bytes = snap.to_bytes();
    let stores = snap.world.net.stores();
    // The first run with an entry holding two neighbours of different rank.
    let (run, i) = stores
        .iter()
        .find_map(|run| {
            let items = run.items();
            let mut start = 0;
            run.ends().iter().find_map(|&end| {
                let entry = start..end as usize;
                start = end as usize;
                let differ = |i: &usize| items[*i].rank() != items[*i + 1].rank();
                (entry.start..entry.end - 1).find(differ).map(|i| (run, i))
            })
        })
        .expect("a gram entry of two lengths");
    assert!(matches!(run.items()[i].kind(), PostingKind::InstanceGram { .. }));
    let n = (run.len() as u64).to_le_bytes();
    let words =
        |of: &mut dyn Iterator<Item = u32>| of.flat_map(u32::to_le_bytes).collect::<Vec<_>>();
    let bits = words(&mut run.keys().map(|k| k.len() as u32));
    let ends = words(&mut run.ends().iter().copied());
    let count = (run.item_count() as u64).to_le_bytes();
    let arrays = [run.key_bytes(), &n[..], &bits[..], &n[..], &ends[..], &count[..]].concat();
    let at = bytes.windows(arrays.len()).position(|w| w == arrays).expect("the run's arrays");
    let spans = posting_spans(&bytes, at + arrays.len(), run.item_count());
    let (a, b) = (spans[i].clone(), spans[i + 1].clone());
    assert_ne!(bytes[a.clone()], bytes[b.clone()]);

    let mut swapped = bytes.clone();
    swapped[a.start..b.end].copy_from_slice(&[&bytes[b], &bytes[a]].concat());
    let err = std::panic::catch_unwind(|| Snapshot::from_bytes(&swapped).map(|_| ()))
        .expect("the decoder does not panic")
        .unwrap_err();
    assert_eq!(err, SnapError::Corrupt("a run's entry does not ascend by rank"));
    assert_eq!(err.exit_code(), 2);
    assert!(Snapshot::from_bytes(&bytes).is_ok(), "the same bytes in order decode");
}

/// A cached list that is one gram key's is a copy of a run's entry, and a
/// probe served from the cache bisects it like one: out of rank order it is
/// `Corrupt` at decode time, checked beside the cache entry's other fields.
#[test]
fn a_cached_gram_list_out_of_rank_order_is_corrupt() {
    let (bytes, _) = a_whole_artifact();
    let snap = Snapshot::from_bytes(&bytes).expect("decodes");
    let entries = &snap.world.broker.as_ref().expect("a broker").cache.entries;
    let (entry, i) = entries
        .iter()
        .find_map(|e| {
            let list = &e.value;
            let differ = |i: &usize| list[i - 1].rank() != list[*i].rank();
            (1..list.len()).find(differ).filter(|_| one_gram_entry(list)).map(|i| (e, i))
        })
        .expect("a cached gram list of two ranks");
    // The entry as the codec spells it: the peer, the key's bytes
    // (length-prefixed) and bit length, then the list, counted.
    let (peer, key) = &entry.key;
    let head = [
        &peer.0.to_le_bytes()[..],
        &(key.as_bytes().len() as u64).to_le_bytes(),
        key.as_bytes(),
        &(key.len() as u64).to_le_bytes(),
        &(entry.value.len() as u64).to_le_bytes(),
    ]
    .concat();
    let at = bytes.windows(head.len()).position(|w| w == head).expect("the entry") + head.len();
    let spans = posting_spans(&bytes, at, entry.value.len());
    let (a, b) = (spans[i - 1].clone(), spans[i].clone());
    let mut swapped = bytes.clone();
    swapped[a.start..b.end].copy_from_slice(&[&bytes[b], &bytes[a]].concat());
    let err = Snapshot::from_bytes(&swapped).map(|_| ()).unwrap_err();
    assert_eq!(err, SnapError::Corrupt("a cached gram list does not ascend by rank"));
}

/// An image whose tables disagree with one another fails at decode time,
/// by the check a live network runs on itself: there is no image for
/// `restore_engine` to index out of, and none for `route` to walk in
/// circles on. So does an image whose RNG words are all zero, the one
/// state `StdRng::from_state_words` panics on.
#[test]
fn an_image_whose_tables_disagree_is_corrupt_not_a_restore_or_routing_panic() {
    let engine = build(&words());
    let snap = Snapshot::capture(&engine);
    let bytes = snap.to_bytes();
    // The structural tables as the codec spells them, one behind the other:
    // members per partition, partition per peer, alive flags, then the
    // routing arena's references and its two offset tables.
    let topo = engine.network().topology();
    let (peers, refs) = (topo.peer_count(), topo.routing.refs.len());
    let mut members = (topo.partition_count() as u64).to_le_bytes().to_vec();
    for part in 0..topo.partition_count() {
        members.extend((topo.members(part).len() as u64).to_le_bytes());
        members.extend(topo.members(part).iter().flat_map(|p| p.0.to_le_bytes()));
    }
    let members_at =
        bytes.windows(members.len()).position(|w| w == members).expect("the membership table");
    let alive_at = members_at + members.len() + 8 + 4 * peers;
    let slice_off_at = alive_at + 8 + peers + 8 + 4 * refs;
    assert_eq!(bytes[alive_at..alive_at + 8], (peers as u64).to_le_bytes());
    let levels = topo.routing.slice_off.len();
    assert_eq!(bytes[slice_off_at..slice_off_at + 8], (levels as u64).to_le_bytes());
    // The first routing level that has references; ending it where it
    // starts empties it, over a subtree that has members.
    let offs = &topo.routing.slice_off;
    let filled = (0..levels - 1).find(|l| offs[l + 1] > offs[*l]).expect("a level with references");
    // The network's RNG words close its image, after the two counters.
    let rng: Vec<u8> = snap.world.net.rng_words().iter().flat_map(|w| w.to_le_bytes()).collect();
    let rng_at = bytes.windows(32).position(|w| w == rng).expect("the network's RNG words");

    let patched = |at: usize, with: &[u8]| {
        let mut b = bytes.clone();
        b[at..at + with.len()].copy_from_slice(with);
        b
    };
    // One flag fewer, not a count that lies about the flags that follow.
    let short = [
        &bytes[..alive_at],
        &(peers as u64 - 1).to_le_bytes()[..],
        &bytes[alive_at + 8..alive_at + 8 + peers - 1],
        &bytes[alive_at + 8 + peers..],
    ]
    .concat();
    for (what, mutant) in [
        ("a member out of range", patched(members_at + 16, &4_000_000u32.to_le_bytes())),
        ("`alive` one short", short),
        (
            "a routing offset past the references",
            patched(slice_off_at + 12, &1_000_287u32.to_le_bytes()),
        ),
        (
            "routing offsets that descend",
            patched(slice_off_at + 8 + 4 * (levels - 1), &0u32.to_le_bytes()),
        ),
        (
            "an empty routing level over a peered subtree",
            patched(slice_off_at + 8 + 4 * (filled + 1), &offs[filled].to_le_bytes()),
        ),
        ("a network RNG in the all-zero state", patched(rng_at, &[0; 32])),
    ] {
        let err = Snapshot::from_bytes(&mutant).map(|_| ()).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{what}: got {err:?}");
        assert_eq!(err.exit_code(), 2);
        if what.starts_with("an empty routing level") {
            let reason = "a routing level is empty over a peered subtree, or names a gap";
            assert!(matches!(err, SnapError::Corrupt(r) if r == reason), "{what}: got {err:?}");
        }
    }
}

/// A small world with every section in it — two attributes, non-ASCII
/// text, a value shorter than q, a number, a warm broker cache, a paused
/// driver — as an artifact, with the configuration it restores under.
fn a_whole_artifact() -> (Vec<u8>, EngineConfig) {
    let words = bible_words(48, 7);
    let mut rows: Vec<Row> = words
        .iter()
        .enumerate()
        .map(|(i, w)| Row::new(format!("w:{i}"), [("word", w.as_str()), ("again", w.as_str())]))
        .collect();
    rows.push(Row::new("w:é", [("word", "naïve日本")]));
    rows.push(Row::new("w:short", [("word", "a")]));
    rows.push(Row::new("w:seven", [("n", 7)]));
    let cfg = workload(BrokerConfig::enabled());
    let mut engine =
        EngineBuilder::new().peers(16).q(2).seed(3).cache_config(cfg.cache).build_with_rows(&rows);
    let ckpt = match run_driver_until(&mut engine, "word", &words, &cfg, 1_000_000)
        .expect("a drivable workload")
    {
        DriverPhase::Paused(ck) => ck,
        DriverPhase::Done(_) => panic!("a cut at 1s must land mid-run"),
    };
    let snap = Snapshot::capture_paused(&engine, ckpt);
    assert!(snap.world.broker.as_ref().is_some_and(|b| !b.cache.entries.is_empty()));
    (snap.to_bytes(), engine.config().clone())
}

/// The broker and paused-driver sections' wire pin: the whole artifact —
/// cached posting lists, sketch, channels, pending events, client streams,
/// histograms, the virtual-time image — is the bytes it was before the
/// codec stated each record once, re-measured at v5: a gram key's postings
/// moved into (length, position) order, so the runs, the triple table
/// numbered in run order and the cached lists copied from the runs moved
/// with them — and at v6, when the network image, the latency profiles,
/// the clock's image and the channel pool lost the meters nothing read and
/// the broker's counters began to store the channels opened — and at v7,
/// when the driver queue lost its churn tag (a fault's tag is 1 now) and
/// the driver image began to carry the loss spike in force. Re-measure
/// only with a `SCHEMA_VERSION` bump.
#[test]
fn a_whole_artifact_reaches_the_bytes_it_reached_before() {
    let (bytes, _) = a_whole_artifact();
    assert_eq!(SCHEMA_VERSION, 7);
    assert_eq!(fnv1a(&bytes), 0xd586_a8c4_0b34_45cb, "whole artifact {:#018x}", fnv1a(&bytes));
}

/// The decoder is total: whatever is done to an artifact — a bit flipped,
/// the tail cut off, a stretch overwritten with another stretch of the
/// same artifact or with noise — `from_bytes` returns, and an artifact it
/// accepts encodes again, restores to a network that passes its own
/// invariant check, and routes from every alive peer; it never panics and
/// never asks for more memory than the input could describe. (A flip
/// inside a counter still decodes, which is why the outcome is not
/// asserted to be an error each time.)
#[test]
fn no_mutant_of_an_artifact_panics_the_decoder() {
    let (bytes, cfg) = a_whole_artifact();
    assert!(Snapshot::from_bytes(&bytes).is_ok());
    // xorshift64*: the mutants are the same on every run.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut below = move |n: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    };
    // Eight keys, spread over the key space by the same constant.
    let keys: Vec<Key> = (1..=8u64)
        .map(|i| Key::from_bytes(&i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_be_bytes()))
        .collect();
    const MUTANTS: usize = 2_400;
    let mut refused = 0;
    for i in 0..MUTANTS {
        let mut mutant = bytes.clone();
        // Past the envelope, which `envelope_is_versioned…` covers.
        let at = 8 + below(bytes.len() - 8);
        let what = match i % 4 {
            0 => {
                mutant[at] ^= 1 << below(8);
                "flip"
            }
            1 => {
                mutant.truncate(at);
                "truncate"
            }
            2 => {
                let len = 1 + below(64.min(bytes.len() - at));
                let from = below(bytes.len() - len);
                mutant[at..at + len].copy_from_slice(&bytes[from..from + len]);
                "splice"
            }
            _ => {
                let len = 1 + below(8.min(bytes.len() - at));
                mutant[at..at + len].iter_mut().for_each(|b| *b = below(256) as u8);
                "noise"
            }
        };
        let outcome = std::panic::catch_unwind(|| {
            Snapshot::from_bytes(&mutant).map(|snap| {
                // Static configuration is the caller's; the image's own
                // network half is the one it restores under.
                let network = snap.world.net.config().clone();
                let mut engine = snap.restore_engine(&EngineConfig { network, ..cfg.clone() });
                let net = engine.network_mut();
                assert_eq!(net.check_invariants(), Ok(()));
                let peers = (0..net.peer_count() as u32).map(PeerId);
                let alive: Vec<PeerId> = peers.filter(|p| net.peer_alive(*p)).collect();
                for from in alive {
                    for key in &keys {
                        // Reached or honestly unreachable, never a panic.
                        let _ = net.route(from, key);
                    }
                }
                snap.to_bytes().len()
            })
        });
        match outcome {
            Ok(decoded) => refused += usize::from(decoded.is_err()),
            Err(_) => panic!("mutant {i} ({what} at byte {at} of {}) panicked", bytes.len()),
        }
    }
    assert!(refused > MUTANTS / 2, "only {refused} of {MUTANTS} mutants were refused");
}

/// Damage to the triple table or to what a posting says of its triple is
/// `Corrupt` at decode time: the one slab a decoded world reads through is
/// built from the table, and every posting is checked against it — its
/// triple's index, and its gram, which must lie in the triple's value at
/// the position the posting gives.
#[test]
fn a_posting_that_does_not_fit_its_triple_is_corrupt() {
    let (bytes, _) = a_whole_artifact();
    // The one posting of the gram `日本`: tag, triple index, then the gram
    // length-prefixed, its position (character 5 of `naïve日本`) and the
    // carries-value flag.
    let gram = "日本".as_bytes();
    let tail = [&6u64.to_le_bytes()[..], gram, &5u32.to_le_bytes(), &[0]].concat();
    let len_at = bytes.windows(tail.len()).position(|w| w == tail).expect("the gram's posting");
    let (index_at, text_at, pos_at) = (len_at - 4, len_at + 8, len_at + 8 + gram.len());
    assert_eq!(bytes[index_at - 1], 1, "an instance-gram posting");
    // The first triple of the table: its oid, length-prefixed, follows the
    // envelope and the table's length.
    let oid_at = 8 + 8 + 8;

    let patched = |at: usize, with: &[u8]| {
        let mut b = bytes.clone();
        b[at..at + with.len()].copy_from_slice(with);
        Snapshot::from_bytes(&b).map(|_| ()).unwrap_err()
    };
    for (what, err) in [
        ("a triple index past the table", patched(index_at, &u32::MAX.to_le_bytes())),
        ("a gram at another position", patched(pos_at, &4u32.to_le_bytes())),
        ("a gram its value does not hold", patched(text_at, "日月".as_bytes())),
        ("a gram cut inside a character", patched(text_at + gram.len() - 1, b"x")),
        ("an oid that is not UTF-8", patched(oid_at, &[0xff])),
    ] {
        assert!(matches!(err, SnapError::Corrupt(_)), "{what}: got {err:?}");
        assert_eq!(err.exit_code(), 2);
    }
}

/// Every stored run with a copy of what it held.
fn held_runs(engine: &SimilarityEngine) -> Vec<(PartitionStore<Posting>, String)> {
    let state = engine.network().export_state();
    state.stores().iter().map(|run| (run.clone(), format!("{run:?}"))).collect()
}

/// A snapshot is a set of handles onto the live runs, and stays what it
/// was: a publish into the engine it was captured from, and one into an
/// engine forked from it, each copy the runs they write first. The
/// snapshot encodes to the bytes taken before either write, a second fork
/// answers as before, and a reader holding a run from before sees it
/// unchanged.
#[test]
fn a_fork_is_isolated_from_its_source() {
    let words = words();
    let mut live = build(&words);
    let snap = Snapshot::capture(&live);
    let before = snap.to_bytes();
    let held = held_runs(&live);
    // The same words again under new oids: every gram and value entry of
    // the world is appended to, and `w:0` gains a field.
    let mut extra = string_rows("word", &words, "again");
    extra.push(Row::new("w:0", [("note", "added later")]));
    let with_note = |engine: &mut SimilarityEngine| {
        let from = engine.random_peer();
        let found = Session::new(engine, from).run(&Query::lookup("w:0")).expect("a lookup plans");
        let object = &found.rows.first().expect("w:0 is stored").object();
        object.fields.iter().any(|(attr, _)| attr.as_str() == "note")
    };

    let from = live.random_peer();
    let stats = live.publish_rows_traced(&extra, from);
    assert!(stats.matches > extra.len(), "several postings per row were stored");
    assert!(with_note(&mut live));
    assert_ne!(Snapshot::capture(&live).to_bytes(), before, "the live engine moved on");
    assert_eq!(snap.to_bytes(), before, "the snapshot did not");

    let [mut written, mut untouched]: [SimilarityEngine; 2] =
        snap.fork(live.config(), 2).try_into().ok().expect("two forks");
    assert_eq!(written.publish_rows(&extra), 0, "every partition has a peer");
    assert!(with_note(&mut written));
    assert_eq!(snap.to_bytes(), before, "a fork's write stays in the fork");
    assert_eq!(Snapshot::capture(&untouched).to_bytes(), before, "and out of its sibling");
    assert!(!with_note(&mut untouched));
    assert!(!with_note(&mut snap.restore_engine(live.config())));

    assert!(held.iter().all(|(run, was)| format!("{run:?}") == *was), "a reader's run changed");
    assert_eq!(held.len(), held_runs(&untouched).len());
    // Runs of `b` that are the very runs `a` holds.
    let shared = |a: &SimilarityEngine, b: &SimilarityEngine| {
        let (of_a, of_b) = (held_runs(a), held_runs(b));
        of_a.iter().zip(&of_b).filter(|((x, _), (y, _))| x.shares_with(y)).count()
    };
    assert_eq!(shared(&untouched, &snap.restore_engine(live.config())), held.len());
    let kept = shared(&untouched, &written);
    assert!(
        0 < kept && kept < held.len(),
        "a write copies the runs it touches, nothing else: {kept} of {} runs still shared",
        held.len()
    );
}

/// A broker's cache lends runs and its image copies them: every exported
/// list is the copy a `retrieve_list` of its key makes — what a fill once
/// kept — a broker restored from the image, each list held in a run of one
/// entry, encodes to the same bytes, and it answers the same lookups with
/// the same lists and the same queries with the same rows and hits.
#[test]
fn a_broker_of_lent_lists_encodes_and_restores_as_copies() {
    let words = words();
    let rows = string_rows("word", &words, "w");
    let builder = EngineBuilder::new().peers(64).q(2).seed(3);
    let mut lent = builder.cache_config(BrokerConfig::cache_only()).build_with_rows(&rows);
    let from = lent.random_peer();
    let queries = [
        Query::similar(words[5].clone(), Some("word"), 1),
        Query::top_n_similar(Some("word"), 3, words[9].clone(), 2),
        Query::select_exact("word", words[11].as_str().into()),
        Query::select_keyword(words[13].as_str().into()),
    ];
    for q in &queries {
        Session::new(&mut lent, from).run(q).expect("a valid plan");
    }
    let snap = Snapshot::capture(&lent);
    let bytes = snap.to_bytes();
    let entries = &snap.world.broker.as_ref().expect("a broker").cache.entries;
    assert!(entries.len() > 10, "{} lists cached", entries.len());
    let mut copier = snap.restore_engine(lent.config());
    for e in entries {
        let (peer, key) = &e.key;
        let copy = copier.network_mut().retrieve_list(*peer, key).expect("every peer is alive");
        assert_eq!(e.value, copy, "the list of {key}");
    }

    let mut restored =
        Snapshot::from_bytes(&bytes).expect("an artifact").restore_engine(lent.config());
    assert_eq!(
        Snapshot::capture(&restored).to_bytes(),
        bytes,
        "one-entry runs encode as lent ones"
    );
    let (mut a, mut b) =
        (lent.clear_broker().expect("a broker"), restored.clear_broker().expect("a broker"));
    let epoch = lent.network().cache_epoch();
    for e in entries {
        let (peer, key) = &e.key;
        let list = |b: &mut sqo_cache::CacheBatchBroker| {
            let runs = b.cache_get(*peer, key, e.inserted_us, epoch).expect("a valid entry");
            runs.iter().flat_map(|run| run.items()).cloned().collect::<Vec<Posting>>()
        };
        assert_eq!(list(&mut a), list(&mut b), "the list of {key}");
    }
    assert_eq!(a.counters(), b.counters());
    lent.set_broker(a);
    restored.set_broker(b);
    for q in &queries {
        let was = Session::new(&mut lent, from).run(q).expect("a valid plan");
        let now = Session::new(&mut restored, from).run(q).expect("a valid plan");
        assert_eq!(now.rows, was.rows);
        assert_eq!(format!("{:?}", now.stats), format!("{:?}", was.stats));
        assert!(was.stats.cache_hits > 0 && was.stats.cache_misses == 0, "{:?}", was.stats);
    }
}

/// A restored world continues the original's RNG stream and counters: the
/// next queries on both engines are identical, which is what makes warm
/// templates equivalent to cold rebuilds.
#[test]
fn restored_world_continues_the_original_stream() {
    let words = words();
    let mut a = build(&words);
    let snap = Snapshot::capture(&a);
    let mut b = snap.restore_engine(a.config());

    let cfg = workload(BrokerConfig::default());
    let ra = json(&run_driver(&mut a, "word", &words, &cfg));
    let rb = json(&run_driver(&mut b, "word", &words, &cfg));
    assert_eq!(ra, rb, "capture is an observationally silent operation");
}

/// Distinct contents and distinct allocations among the attribute names
/// and among the gram texts of every stored posting.
fn string_sharing(engine: &SimilarityEngine) -> [(usize, usize); 2] {
    use std::collections::HashSet;
    let (mut attrs, mut attr_ptrs) = (HashSet::new(), HashSet::new());
    let (mut grams, mut gram_ptrs) = (HashSet::new(), HashSet::new());
    let state = engine.network().export_state();
    for p in state.stores().iter().flat_map(|run| run.items()) {
        let attr = p.triple().attr().as_str();
        attr_ptrs.insert(attr.as_ptr());
        attrs.insert(attr);
        if matches!(p.kind(), PostingKind::InstanceGram { .. } | PostingKind::SchemaGram) {
            gram_ptrs.insert(p.gram().as_ptr());
            grams.insert(p.gram());
        }
    }
    [(attrs.len(), attr_ptrs.len()), (grams.len(), gram_ptrs.len())]
}

/// Attribute names and gram texts are one allocation per distinct string,
/// in a built world and — the layout every benchmark workload measures —
/// in one thawed from bytes, although the artifact spells each out per
/// triple and per posting.
#[test]
fn built_and_thawed_worlds_share_attribute_and_gram_strings() {
    let words = words();
    let rows: Vec<Row> = words
        .iter()
        .enumerate()
        .map(|(i, w)| Row::new(format!("w:{i}"), [("word", w.as_str()), ("again", w.as_str())]))
        .collect();
    let built = EngineBuilder::new().peers(64).q(2).seed(3).build_with_rows(&rows);
    let bytes = Snapshot::capture(&built).to_bytes();
    let thawed = Snapshot::from_bytes(&bytes).expect("decodes").restore_engine(built.config());

    for (what, engine) in [("built", &built), ("thawed", &thawed)] {
        let [(attrs, attr_allocs), (grams, gram_allocs)] = string_sharing(engine);
        assert_eq!(attrs, 2, "{what}");
        assert!(grams > 100, "{what}: {grams} distinct grams");
        assert_eq!(attr_allocs, attrs, "{what}: one allocation per attribute name");
        assert_eq!(gram_allocs, grams, "{what}: one allocation per gram");
    }
    assert_eq!(Snapshot::capture(&thawed).to_bytes(), bytes, "sharing moves no byte");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ *b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The write path's wire pin: a replicated world grown after its build —
/// a traced publish, an untraced one, a second traced one from another
/// peer — reaches the artifact byte for byte as it did when every posting
/// was a store insert of its own and the artifact's key table was a live,
/// network-wide structure every insert went through. The constants are the
/// digests this same test body printed on the parent commit (4e80e82,
/// schema v3), with delegation on and off, re-measured once when peers
/// went where the data is — a new dealing, new routing tables and shorter
/// publication routes, in the same wire format — once more at schema v4,
/// when a run began to travel as its own arrays instead of through
/// network-wide key and list tables, at v5, when a gram key's postings
/// began to ascend by (length, position), at v6, when the image lost its
/// per-peer load table, and at v7, whose header is the only byte that moved
/// here (the churn tag and the spike in force are in the driver image,
/// which this world has none of). Otherwise re-measure them only together
/// with a `sqo_snap::SCHEMA_VERSION` bump.
#[test]
fn a_world_grown_by_publishes_reaches_the_bytes_the_per_posting_path_wrote() {
    let rows = string_rows("word", &bible_words(420, 7), "w");
    for (delegation, digest) in [(true, 0x31ed_0b2b_e356_c69c), (false, 0x1210_dccd_1b46_9191)] {
        let mut engine = EngineBuilder::new()
            .peers(64)
            .replication(2)
            .q(2)
            .seed(3)
            .delegation(delegation)
            .build_with_rows(&rows[..260]);
        let from = engine.random_peer();
        engine.publish_rows_traced(&rows[260..340], from);
        engine.publish_rows(&rows[340..380]);
        let from = engine.random_peer();
        engine.publish_rows_traced(&rows[380..], from);
        let bytes = Snapshot::capture(&engine).to_bytes();
        assert_eq!(SCHEMA_VERSION, 7);
        assert_eq!(
            fnv1a(&bytes),
            digest,
            "delegation {delegation}: artifact is {} bytes, digest {:#018x}",
            bytes.len(),
            fnv1a(&bytes)
        );
    }
}

/// Each run travels as the arrays it is and decodes to them: the same key
/// bytes, keys, ends and postings, partition by partition, in a world grown
/// by a publish after its build.
#[test]
fn every_run_decodes_to_the_arrays_it_was_written_from() {
    let words = words();
    let mut engine = build(&words);
    let from = engine.random_peer();
    engine.publish_rows_traced(&string_rows("word", &bible_words(60, 99), "x"), from);
    let bytes = Snapshot::capture(&engine).to_bytes();
    let decoded = Snapshot::from_bytes(&bytes).expect("decodes");
    let (live, thawed) = (engine.network().export_state(), &decoded.world.net);
    assert_eq!(live.stores().len(), thawed.stores().len());
    for (part, (a, b)) in live.stores().iter().zip(thawed.stores()).enumerate() {
        assert_eq!(a.key_bytes(), b.key_bytes(), "partition {part}");
        assert!(a.keys().eq(b.keys()), "partition {part}");
        assert_eq!(a.ends(), b.ends(), "partition {part}");
        assert_eq!(a.items(), b.items(), "partition {part}");
    }
}

/// A hostile image: a run that lacks a key shorter than the trie depth
/// which a later sibling under the same short key holds — when the encoder
/// indexed every run's keys in one network-wide table, the sibling's key
/// was looked up in it and not found. Each run is written as its own arrays
/// and no run is looked up in another, so the image encodes, decodes and
/// restores to itself without a panic.
#[test]
fn a_run_that_lacks_a_short_key_its_siblings_hold_round_trips() {
    let mut engine = build(&words());
    // A key shorter than the trie under two peered partitions: their
    // paths' common prefix, published with a posting the world holds.
    let net = engine.network();
    let peered = net.topology().peered_in(0, net.partition_count());
    let (first, later) = (peered[0] as usize, peered[1] as usize);
    let (a, b) = (&net.paths()[first], &net.paths()[later]);
    let short = a.prefix(a.common_prefix_len(b));
    let posting = net.partition_store(first).items()[0].clone();
    assert_eq!(engine.network_mut().insert_item(short.clone(), posting), 0);
    let state = engine.network().export_state();
    let topo = state.topology();
    // The first run without it, rebuilt from its arrays.
    assert!(state.stores()[later].exact_entry(&short).is_some(), "the later run holds it");
    let run = &state.stores()[first];
    let kept: Vec<_> = run.iter().filter(|(k, _)| *k != short.as_ref()).collect();
    assert_eq!(kept.len() + 1, run.len(), "the first run held the short key");
    let mut ends = Vec::new();
    for (_, items) in &kept {
        ends.push(ends.last().copied().unwrap_or(0) + items.len() as u32);
    }
    let lacking = SortedStore::from_parts(
        kept.iter().flat_map(|(k, _)| k.as_bytes().to_vec()).collect(),
        &kept.iter().map(|(k, _)| k.len() as u32).collect::<Vec<_>>(),
        ends,
        kept.iter().flat_map(|(_, items)| items.to_vec()).collect(),
    )
    .expect("a run less one entry is a run");
    let mut stores = state.stores().to_vec();
    stores[first] = PartitionStore::from_store(lacking);
    let hostile = NetworkState::new(
        state.config().clone(),
        topo.clone(),
        state.alive().to_vec(),
        stores,
        *state.metrics(),
        state.next_trace_query(),
        state.cache_epoch(),
        state.rng_words(),
    )
    .expect("each run is valid on its own");
    let image = format!("{hostile:?}");
    let hostile = SimilarityEngine::from_parts(
        engine.config().clone(),
        Network::import_state(&hostile),
        *engine.publish_stats(),
        0,
        None,
        std::rc::Rc::clone(engine.objects()),
    );

    let bytes = Snapshot::capture(&hostile).to_bytes();
    let restored = Snapshot::from_bytes(&bytes).expect("decodes").restore_engine(engine.config());
    assert_eq!(format!("{:?}", restored.network().export_state()), image);
    assert_eq!(Snapshot::capture(&restored).to_bytes(), bytes);
}
