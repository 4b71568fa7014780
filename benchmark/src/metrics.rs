//! Every metric the benchmark can print, by name, with unit, direction and
//! kind. `BENCHMARK.json` lists exactly these names (a unit test keeps the
//! two in step); README.md is the glossary.

use crate::json;
use crate::workloads::WORKLOADS;

/// Where a number comes from, printed beside it so the two are never mixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall clock or memory on this machine: noisy, median over repetitions.
    Host,
    /// What the simulated overlay would cost (the paper's axes): repeats
    /// exactly for a fixed seed. Unvalidated against the paper — the repo
    /// holds no reference numbers from its Figure 1.
    Model,
    /// A property of the harness itself.
    Harness,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Model => "model",
            Kind::Harness => "harness",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub kind: Kind,
}

const fn host(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, kind: Kind::Host }
}

const fn model(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, kind: Kind::Model }
}

/// The end-to-end metrics every workload reports as a non-zero number, with
/// the share of the parent's median each may worsen by before a change
/// counts as a regression. These are the `end_to_end` list of
/// `BENCHMARK.json`.
///
/// The bounds are set by what this machine can resolve, not by what one
/// would like to. Its speed changes under the benchmark (see
/// [`crate::pace`]); with every time speed-normalised, ten runs on ten
/// seeds put `setup_s` 3–9 % and `ops_per_s` 4–10 % apart (quartile
/// distance over median) — raw wall clock: 17–31 % and 13–19 % at the
/// machine's bad hours. Between seeds `msgs_per_op` moves up to 4.5 %
/// (`titles-scan`) and `peak_rss_mb` of `scale-core` 8 % (bucket vectors
/// of the event rings double at different points, 10 % in another
/// campaign). Each bound is about three times the widest spread seen, up
/// to the 25 % the contract allows; a bound below the spread would reject
/// on weather.
pub const GATED: &[(MetricDef, f64)] = &[
    (host("setup_s", "s", "lower"), 0.25),
    (host("ops_per_s", "op/s", "higher"), 0.25),
    (host("peak_rss_mb", "MB", "lower"), 0.25),
    (model("msgs_per_op", "msgs", "lower"), 0.15),
];

/// The remaining end-to-end metrics. `scale-core` has no bytes and no
/// latency distribution and `failed_share` is 0 on a healthy run, so they
/// cannot sit in a list whose every entry must be non-zero on every
/// workload; they are reported with the traced run instead and compared
/// exactly (they are model metrics) by `compare`.
pub const MODEL_E2E: &[MetricDef] = &[
    model("kb_per_op", "KiB", "lower"),
    model("virt_p50_ms", "ms", "lower"),
    model("virt_p95_ms", "ms", "lower"),
    model("failed_share", "ratio", "lower"),
];

/// Per-layer metrics, `<layer>.<name>`; layers are the crate names.
pub const LAYERS: &[MetricDef] = &[
    // datasets
    host("datasets.gen_s", "s", "lower"),
    // storage
    host("storage.postings_s", "s", "lower"),
    host("storage.publish_rows_per_s", "rows/s", "higher"),
    model("storage.postings_per_row", "count", "lower"),
    model("storage.overhead_factor", "ratio", "lower"),
    // overlay
    host("overlay.build_s", "s", "lower"),
    host("overlay.hop_ns", "ns", "lower"),
    host("overlay.retrieve_ns", "ns", "lower"),
    host("overlay.scan_ns_per_item", "ns", "lower"),
    host("overlay.insert_ns", "ns", "lower"),
    model("overlay.hops_per_route", "count", "lower"),
    model("overlay.messages", "msgs", "lower"),
    model("overlay.route_hops", "count", "lower"),
    model("overlay.items_scanned", "count", "lower"),
    host("overlay.bytes_per_peer", "B", "lower"),
    host("overlay.est_busy_share", "ratio", "lower"),
    // strsim
    host("strsim.lev_bounded_ns", "ns", "lower"),
    host("strsim.qgrams_ns", "ns", "lower"),
    host("strsim.qsamples_ns", "ns", "lower"),
    model("strsim.edits_per_op", "count", "lower"),
    host("strsim.est_busy_share", "ratio", "lower"),
    // cache
    model("cache.hit_rate", "ratio", "higher"),
    model("cache.probes_coalesced", "count", "higher"),
    model("cache.channels_opened", "count", "lower"),
    model("cache.messages_saved", "msgs", "higher"),
    model("cache.admission_rejects", "count", "lower"),
    host("cache.lru_ns", "ns", "lower"),
    host("cache.sketch_ns", "ns", "lower"),
    // core: synchronous cells (span around `Session::run_prepared`)
    host("core.naive_d1.host_us_p50", "us", "lower"),
    host("core.naive_d1.host_us_p90", "us", "lower"),
    model("core.naive_d1.msgs_per_query", "msgs", "lower"),
    host("core.naive_d2.host_us_p50", "us", "lower"),
    host("core.naive_d2.host_us_p90", "us", "lower"),
    model("core.naive_d2.msgs_per_query", "msgs", "lower"),
    host("core.naive_d3.host_us_p50", "us", "lower"),
    host("core.naive_d3.host_us_p90", "us", "lower"),
    model("core.naive_d3.msgs_per_query", "msgs", "lower"),
    host("core.select_range.host_us_p50", "us", "lower"),
    host("core.select_range.host_us_p90", "us", "lower"),
    model("core.select_range.msgs_per_query", "msgs", "lower"),
    host("core.qgrams_d1.host_us_p50", "us", "lower"),
    host("core.qgrams_d1.host_us_p90", "us", "lower"),
    model("core.qgrams_d1.msgs_per_query", "msgs", "lower"),
    // core: driver operators (`DriverReport.per_operator`)
    model("core.similar.virt_p50_ms", "ms", "lower"),
    model("core.similar.virt_p95_ms", "ms", "lower"),
    model("core.similar.msgs_per_query", "msgs", "lower"),
    model("core.topn.virt_p50_ms", "ms", "lower"),
    model("core.topn.virt_p95_ms", "ms", "lower"),
    model("core.topn.msgs_per_query", "msgs", "lower"),
    model("core.simjoin.virt_p50_ms", "ms", "lower"),
    model("core.simjoin.virt_p95_ms", "ms", "lower"),
    model("core.simjoin.msgs_per_query", "msgs", "lower"),
    model("core.vql.virt_p50_ms", "ms", "lower"),
    model("core.vql.virt_p95_ms", "ms", "lower"),
    model("core.vql.msgs_per_query", "msgs", "lower"),
    model("core.probes_per_query", "count", "lower"),
    model("core.matches_per_candidate", "ratio", "higher"),
    model("core.matches_per_edit", "ratio", "higher"),
    host("core.exec_s", "s", "lower"),
    host("core.unattributed_share", "ratio", "lower"),
    // plan, vql
    host("plan.prepare_us_p50", "us", "lower"),
    host("vql.parse_us_p50", "us", "lower"),
    // sim
    host("sim.driver_s", "s", "lower"),
    host("sim.host_ns_per_msg", "ns", "lower"),
    host("sim.netsim_overhead_ratio", "ratio", "lower"),
    host("sim.event_queue_ns_d16", "ns", "lower"),
    host("sim.event_queue_ns_d10k", "ns", "lower"),
    model("sim.virt_queue_share", "ratio", "lower"),
    host("sim.scale.topology_s", "s", "lower"),
    host("sim.scale.serial_events_per_s", "ev/s", "higher"),
    host("sim.scale.sharded_events_per_s", "ev/s", "higher"),
    model("sim.scale.empty_window_share", "ratio", "lower"),
    model("sim.scale.shard_imbalance", "ratio", "lower"),
    // snap
    host("snap.capture_s", "s", "lower"),
    host("snap.encode_mb_per_s", "MB/s", "higher"),
    host("snap.decode_mb_per_s", "MB/s", "higher"),
    host("snap.restore_s", "s", "lower"),
    model("snap.artifact_mb", "MB", "lower"),
    // obs
    host("obs.sink_overhead_ratio", "ratio", "lower"),
    model("obs.events_per_query", "count", "lower"),
    host("obs.hist_record_ns", "ns", "lower"),
    host("obs.export_mb_per_s", "MB/s", "higher"),
    // harness
    MetricDef {
        name: "bench.trace_overhead_ratio",
        unit: "ratio",
        better: "lower",
        kind: Kind::Harness,
    },
    MetricDef { name: "bench.span_coverage", unit: "ratio", better: "higher", kind: Kind::Harness },
    MetricDef { name: "bench.machine_speed", unit: "ratio", better: "higher", kind: Kind::Harness },
];

/// Everything a traced run reports: the model end-to-end metrics, then the
/// layers — the `per_layer` list of `BENCHMARK.json`.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    MODEL_E2E.iter().chain(LAYERS.iter())
}

/// The eight end-to-end metrics, in the order the tables print them.
pub fn end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    GATED.iter().map(|(def, _)| def).chain(MODEL_E2E.iter())
}

/// Regression bound of a gated end-to-end metric; `None` for model metrics
/// compared exactly.
pub fn bound_of(name: &str) -> Option<f64> {
    GATED.iter().find(|(def, _)| def.name == name).map(|(_, b)| *b)
}

/// `BENCHMARK.json`, from the tables above and the workloads' reasons.
pub fn manifest() -> String {
    let named = |def: &MetricDef, bound: Option<f64>| {
        let mut fields = vec![
            ("name", json::string(def.name)),
            ("unit", json::string(def.unit)),
            ("better", json::string(def.better)),
        ];
        if let Some(b) = bound {
            fields.push(("bound", json::num(b)));
        }
        format!("    {}", json::object(&fields))
    };
    let list = |rows: Vec<String>| format!("[\n{}\n  ]", rows.join(",\n"));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {}",
                json::object(&[("name", json::string(w.name())), ("why", json::string(w.why()))])
            )
        })
        .collect();
    let command: Vec<String> = COMMAND.iter().map(|s| json::string(s)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        list(workloads),
        list(GATED.iter().map(|(def, b)| named(def, Some(*b))).collect()),
        list(per_layer().map(|def| named(def, None)).collect()),
    )
}

/// How the driver starts the benchmark, from the root of a checkout.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// How long one run measures (`--seconds`), whole seconds.
pub const RUN_SECONDS: u32 = 6;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::parse_json;

    /// `BENCHMARK.json` is written by `sqo-benchmark manifest` from these
    /// tables (the driver reads the file before anything is built).
    #[test]
    fn manifest_file_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(text, manifest(), "regenerate with `sqo-benchmark manifest > BENCHMARK.json`");
        let doc = parse_json(&text).expect("valid JSON");
        let keys: Vec<&String> = doc.as_object().expect("an object").keys().collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert!(text.len() < 64 * 1024);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = end_to_end().chain(LAYERS.iter()).map(|d| d.name).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a metric name is used once");
        assert_eq!(LAYERS.len(), 85);
        for d in end_to_end().chain(LAYERS.iter()) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(matches!(d.better, "lower" | "higher"));
        }
    }
}
