//! The driver dispatches its mix through prepared `sqo-plan` queries:
//! multi-operator pipelines run end-to-end interleaved with everything
//! else on the event queue.

use sqo_core::{EngineBuilder, JoinWindow};
use sqo_datasets::{bible_words, string_rows};
use sqo_sim::{run_driver, Arrival, DriverConfig, LatencyModel, QueryKind, SimConfig};

#[test]
fn pipeline_kind_runs_interleaved_on_the_event_queue() {
    let words = bible_words(250, 9);
    let mix = vec![
        QueryKind::Pipeline { d: 1, n: 5, left_limit: Some(6), window: JoinWindow::Fixed(2) },
        QueryKind::Similar { d: 1 },
    ];
    let cfg = DriverConfig {
        clients: 4,
        queries_per_client: 4,
        arrival: Arrival::Poisson { mean_interarrival_us: 8_000 },
        mix,
        sim: SimConfig { latency: LatencyModel::Constant { us: 800 }, ..SimConfig::default() },
        seed: 99,
        ..DriverConfig::default()
    };
    let mut e = EngineBuilder::new()
        .peers(64)
        .q(2)
        .seed(41)
        .build_with_rows(&string_rows("word", &words, "w"));
    let report = run_driver(&mut e, "word", &words, &cfg);
    let pipeline = report
        .per_operator
        .iter()
        .find(|op| op.operator == "pipeline")
        .expect("pipeline operator family in the report");
    assert!(pipeline.summary.count > 0, "pipelines completed");
    assert!(pipeline.messages > 0, "pipelines did distributed work");
    assert!(pipeline.summary.p50_us > 0, "pipelines took virtual time");
}
