//! Drive the §6 query mix as a concurrent workload on the discrete-event
//! simulator and print per-operator latency percentiles.
//!
//! ```sh
//! cargo run --release --example simulated_workload
//! ```

use sqo::core::EngineBuilder;
use sqo::datasets::{bible_words, string_rows};
use sqo::sim::{
    run_driver, Arrival, DriverConfig, FaultEvent, FaultKind, FaultPlan, LatencyModel, SimConfig,
};

fn main() {
    let words = bible_words(2_000, 9);
    let rows = string_rows("word", &words, "w");
    let mut engine = EngineBuilder::new().peers(256).q(2).seed(1).build_with_rows(&rows);

    let cfg = DriverConfig {
        clients: 8,
        queries_per_client: 4,
        arrival: Arrival::Poisson { mean_interarrival_us: 5_000 },
        sim: SimConfig {
            latency: LatencyModel::LogNormal { median_us: 1_500.0, sigma: 0.8 },
            ..SimConfig::default()
        },
        faults: FaultPlan {
            events: vec![FaultEvent { at_us: 50_000, kind: FaultKind::Crash { fraction: 0.1 } }],
        },
        ..DriverConfig::default()
    };
    let report = run_driver(&mut engine, "word", &words, &cfg);

    println!(
        "{} queries over {:.1} virtual seconds under a log-normal WAN model",
        report.queries_run,
        report.virtual_span_us as f64 / 1e6
    );
    println!("(10% of peers killed at t=50ms; queries keep terminating)\n");
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>10}",
        "operator", "count", "p50(ms)", "p95(ms)", "p99(ms)"
    );
    for op in &report.per_operator {
        let s = op.summary;
        println!(
            "{:<10} {:>6} {:>10.2} {:>10.2} {:>10.2}",
            op.operator,
            s.count,
            s.p50_us as f64 / 1e3,
            s.p95_us as f64 / 1e3,
            s.p99_us as f64 / 1e3
        );
    }
    let sim = report.total.sim.expect("driver installs the sink");
    println!(
        "\nthroughput {:.1} q/s | wire {:.1} ms | queueing {:.1} ms | service {:.1} ms",
        report.throughput_qps,
        sim.net_us as f64 / 1e3,
        sim.queue_us as f64 / 1e3,
        sim.service_us as f64 / 1e3
    );
}
