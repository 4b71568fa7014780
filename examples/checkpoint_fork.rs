//! Checkpoint, fork, and deterministic replay with `sqo-snap`.
//!
//! Pauses a concurrent workload at a quiesce boundary, freezes the whole
//! simulation world to a versioned binary artifact, thaws it in a fresh
//! engine, and resumes — verifying the final report is byte-identical to
//! the run that never stopped. Then forks three runs off one warm
//! checkpoint: identical seeds agree byte for byte, derived seeds diverge.
//!
//! ```sh
//! cargo run --release --example checkpoint_fork
//! ```

use sqo::core::EngineBuilder;
use sqo::datasets::{bible_words, string_rows};
use sqo::obs::to_json;
use sqo::sim::{
    resume_driver, run_driver, run_driver_until, seed, Arrival, DriverConfig, DriverPhase,
    FaultEvent, FaultKind, FaultPlan, LatencyModel, SimConfig,
};
use sqo::snap::Snapshot;

fn main() {
    let words = bible_words(400, 7);
    let rows = string_rows("word", &words, "w");
    let build = || EngineBuilder::new().peers(96).q(2).seed(11).build_with_rows(&rows);

    let cfg = DriverConfig {
        clients: 6,
        queries_per_client: 4,
        // Sparse arrivals: gaps dwarf query durations, so the driver
        // quiesces between queries — the only instants it can pause at.
        arrival: Arrival::Poisson { mean_interarrival_us: 400_000 },
        sim: SimConfig {
            latency: LatencyModel::Uniform { min_us: 500, max_us: 2_500 },
            ..SimConfig::default()
        },
        faults: FaultPlan {
            events: vec![FaultEvent { at_us: 150_000, kind: FaultKind::Crash { fraction: 0.05 } }],
        },
        seed: 42,
        ..DriverConfig::default()
    };

    // The reference: one uninterrupted run.
    let mut reference = build();
    let baseline = run_driver(&mut reference, "word", &words, &cfg);
    let baseline_json = to_json(&baseline);

    // Pause an identical run a third of the way into the measured span
    // and freeze the world to bytes.
    let mut paused = build();
    let stop = baseline.virtual_span_us / 3;
    let ckpt = match run_driver_until(&mut paused, "word", &words, &cfg, stop)
        .expect("a drivable workload")
    {
        DriverPhase::Paused(ck) => ck,
        DriverPhase::Done(_) => panic!("the cut should land mid-run"),
    };
    println!(
        "paused at a quiesce boundary: {} of {} queries done",
        ckpt.run.queries_run,
        cfg.clients * cfg.queries_per_client
    );
    let bytes = Snapshot::capture_paused(&paused, ckpt).to_bytes();
    println!("artifact: {} bytes (versioned envelope + full world + driver image)", bytes.len());

    // Thaw in a brand-new engine and resume to the end.
    let snap = Snapshot::from_bytes(&bytes).expect("artifact decodes");
    let mut thawed = snap.restore_engine(paused.config());
    let resumed = resume_driver(&mut thawed, "word", &words, &cfg, snap.driver.clone().unwrap())
        .expect("the checkpoint fits the workload it was cut from");
    assert_eq!(
        to_json(&resumed),
        baseline_json,
        "resume must be byte-identical to the uninterrupted run"
    );
    println!("resume report == uninterrupted report (byte-identical)\n");

    // Fork three runs off one warm checkpoint. Same config ⇒ identical;
    // seeds derived per fork index ⇒ independent trajectories.
    let warm = Snapshot::capture(&reference);
    let mut forks = warm.fork(reference.config(), 3);
    println!("three forks of one warm world, re-seeded via seed::derive(seed, FORK_STREAM, i):");
    for (i, engine) in forks.iter_mut().enumerate() {
        let fork_cfg = DriverConfig {
            seed: seed::derive(cfg.seed, seed::FORK_STREAM, i as u64),
            ..cfg.clone()
        };
        let report = run_driver(engine, "word", &words, &fork_cfg);
        println!(
            "  fork {i}: {} queries, p95 {:.2} ms, {:.1} q/s",
            report.queries_run,
            report.overall.p95_us as f64 / 1e3,
            report.throughput_qps
        );
    }
}
