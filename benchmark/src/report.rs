//! What the benchmark prints: the tables people read, the one-line result
//! the driver reads, and the suite document `compare` reads.

use crate::json;
use crate::metrics::{self, MetricDef, GATED, LAYERS};
use crate::run::Outcome;
use crate::span::Tracer;
use crate::stats::Summary;
use std::fmt::Write as _;
use std::process::Command;

/// The last line of standard output in driver mode: with `--trace 0` every
/// gated end-to-end metric, with `--trace 1` every per-layer metric (0 for
/// those this workload does not measure — the glossary in README.md says
/// which workload measures which).
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let value = |def: &MetricDef| -> f64 {
        let e2e = outcome.e2e.get(def.name).map(|s| s.median);
        let layer = outcome.layers.as_ref().and_then(|l| l.get(def.name).copied());
        e2e.or(layer).unwrap_or(0.0)
    };
    let entry = |def: &MetricDef| {
        let body =
            json::object(&[("value", json::num(value(def))), ("unit", json::string(def.unit))]);
        (def.name.to_string(), body)
    };
    let metrics: Vec<(String, String)> = if traced {
        metrics::per_layer().map(entry).collect()
    } else {
        GATED.iter().map(|(def, _)| entry(def)).collect()
    };
    json::object(&[
        ("correct", outcome.correct.to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        ("metrics", json::object(&metrics)),
    ])
}

fn fmt_value(x: f64) -> String {
    let a = x.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 1_000.0 {
        format!("{x:.0}")
    } else if a >= 10.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// The end-to-end table of one workload.
pub fn end_to_end_table(outcome: &Outcome) -> String {
    let w = outcome.workload;
    let mut out = format!(
        "== {} — op = {}, seed {}, {} repetitions, {} ops attempted, {} failed ==\n",
        w.name(),
        w.op(),
        outcome.seed,
        outcome.reps,
        outcome.attempted,
        outcome.failed
    );
    let speed = outcome.machine_speed;
    let _ = writeln!(
        out,
        "  machine speed over {} timed slices: median {:.2} of nominal, slowest {:.2}",
        speed.n, speed.median, speed.min
    );
    let _ = writeln!(
        out,
        "  {:<14} {:<6} {:>12} {:<6} {:>12} {:>10} {:>3}  {:<6} raw wall",
        "metric", "kind", "median", "unit", "min", "mad", "n", "bound"
    );
    for def in metrics::end_to_end() {
        let Some(s) = outcome.e2e.get(def.name) else {
            let _ = writeln!(out, "  {:<14} {:<6} {:>12}", def.name, def.kind.label(), "—");
            continue;
        };
        let Summary { median, min, mad, n } = *s;
        let bound = match metrics::bound_of(def.name) {
            Some(b) => format!("{:.0} %", b * 100.0),
            None => "exact".to_string(),
        };
        let raw = outcome.raw.get(def.name).map_or(String::new(), |x| fmt_value(*x));
        let _ = writeln!(
            out,
            "  {:<14} {:<6} {:>12} {:<6} {:>12} {:>10} {:>3}  {bound:<6} {raw}",
            def.name,
            def.kind.label(),
            fmt_value(median),
            def.unit,
            fmt_value(min),
            fmt_value(mad),
            n
        );
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "  ! {note}");
    }
    out
}

/// The per-layer table of a traced run: the metrics this workload
/// measures, then the span table with self time = span minus children.
pub fn per_layer_table(outcome: &Outcome, tr: &Tracer) -> String {
    let mut out = format!("-- {} per layer (traced run) --\n", outcome.workload.name());
    let Some(layers) = &outcome.layers else { return out };
    for def in LAYERS {
        if let Some(v) = layers.get(def.name) {
            let _ = writeln!(
                out,
                "  {:<36} {:<7} {:>14} {}",
                def.name,
                def.kind.label(),
                fmt_value(*v),
                def.unit
            );
        }
    }
    let _ = writeln!(out, "  {:<36} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for row in tr.by_name() {
        let _ = writeln!(
            out,
            "  {:<36} {:>8} {:>12.3} {:>12.3}",
            row.name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on.
pub struct Header {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl Header {
    pub fn collect(seed: u64, seconds: f64, smoke: bool) -> Self {
        Header {
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed,
            seconds,
            smoke,
        }
    }

    pub fn text(&self) -> String {
        format!(
            "sqo-benchmark — commit {}, {}, {} cores, seed {}, {} s measured per workload{}\n\
             host = time / memory on this machine; times are at nominal machine speed (median \
             over repetitions, min and MAD beside it, raw wall-clock median last)\n\
             model = cost of the simulated overlay, exact for a fixed seed, unvalidated against \
             the paper\n",
            self.commit,
            self.rustc,
            self.nproc,
            self.seed,
            self.seconds,
            if self.smoke { " — SMOKE SIZE: numbers are not comparable" } else { "" }
        )
    }
}

/// The suite document: header plus, per workload, every metric measured.
pub fn suite_document(header: &Header, outcomes: &[Outcome]) -> String {
    let head = json::object(&[
        ("commit", json::string(&header.commit)),
        ("rustc", json::string(&header.rustc)),
        ("nproc", header.nproc.to_string()),
        ("seed", header.seed.to_string()),
        ("seconds", json::num(header.seconds)),
        ("comparable", (!header.smoke).to_string()),
    ]);
    let workloads: Vec<(String, String)> = outcomes
        .iter()
        .map(|o| {
            let e2e: Vec<(String, String)> = metrics::end_to_end()
                .filter_map(|def| {
                    let s = o.e2e.get(def.name)?;
                    let mut fields = vec![
                        ("value", json::num(s.median)),
                        ("unit", json::string(def.unit)),
                        ("kind", json::string(def.kind.label())),
                        ("min", json::num(s.min)),
                        ("mad", json::num(s.mad)),
                        ("n", s.n.to_string()),
                    ];
                    if let Some(raw) = o.raw.get(def.name) {
                        fields.push(("raw_wall", json::num(*raw)));
                    }
                    Some((def.name.to_string(), json::object(&fields)))
                })
                .collect();
            let layers: Vec<(String, String)> = LAYERS
                .iter()
                .filter_map(|def| {
                    let v = o.layers.as_ref()?.get(def.name)?;
                    let body = json::object(&[
                        ("value", json::num(*v)),
                        ("unit", json::string(def.unit)),
                        ("kind", json::string(def.kind.label())),
                    ]);
                    Some((def.name.to_string(), body))
                })
                .collect();
            let body = json::object(&[
                ("op", json::string(o.workload.op())),
                ("reps", o.reps.to_string()),
                ("attempted", o.attempted.to_string()),
                ("failed", o.failed.to_string()),
                ("correct", o.correct.to_string()),
                ("machine_speed", json::num(o.machine_speed.median)),
                ("end_to_end", json::object(&e2e)),
                ("per_layer", json::object(&layers)),
            ]);
            (o.workload.name().to_string(), body)
        })
        .collect();
    format!("{}\n", json::object(&[("header", head), ("workloads", json::object(&workloads))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{parse_json, Json};
    use crate::workloads::Workload;
    use std::collections::BTreeMap;

    fn outcome(layers: bool) -> Outcome {
        let mut e2e = BTreeMap::new();
        e2e.insert("setup_s", Summary::of(&[0.1, 0.11, 0.12]));
        e2e.insert("ops_per_s", Summary::of(&[300.0, 310.0]));
        e2e.insert("peak_rss_mb", Summary::exact(54.3));
        e2e.insert("msgs_per_op", Summary::exact(249.9));
        e2e.insert("failed_share", Summary::exact(0.0));
        let mut l = BTreeMap::new();
        l.insert("cache.hit_rate", 0.75);
        Outcome {
            workload: Workload::WordsMix,
            seed: 11,
            reps: 2,
            e2e,
            raw: BTreeMap::from([("ops_per_s", 250.0)]),
            machine_speed: Summary::of(&[0.8, 0.9]),
            layers: layers.then_some(l),
            attempted: 2_504,
            failed: 0,
            correct: true,
            notes: vec![],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&outcome(false), false);
        let doc = parse_json(&line).expect("valid JSON");
        let keys: Vec<&String> = doc.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = doc.get("metrics").and_then(Json::as_object).expect("metrics");
        assert_eq!(metrics.len(), GATED.len());
        assert_eq!(
            doc.path(&["metrics", "ops_per_s", "value"]).and_then(Json::as_f64),
            Some(305.0)
        );
        assert_eq!(doc.path(&["metrics", "setup_s", "unit"]).and_then(Json::as_str), Some("s"));

        let line = result_line(&outcome(true), true);
        let doc = parse_json(&line).expect("valid JSON");
        let metrics = doc.get("metrics").and_then(Json::as_object).expect("metrics");
        assert_eq!(metrics.len(), metrics::per_layer().count());
        assert_eq!(
            doc.path(&["metrics", "cache.hit_rate", "value"]).and_then(Json::as_f64),
            Some(0.75)
        );
        // Not measured on this workload: present, zero.
        assert_eq!(
            doc.path(&["metrics", "snap.restore_s", "value"]).and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn suite_document_is_valid_and_tables_name_every_metric() {
        let header = Header {
            commit: "abc".into(),
            rustc: "rustc".into(),
            nproc: 2,
            seed: 11,
            seconds: 1.0,
            smoke: true,
        };
        let doc = parse_json(&suite_document(&header, &[outcome(true)])).expect("valid JSON");
        assert_eq!(
            doc.path(&["workloads", "words-mix", "end_to_end", "setup_s", "n"])
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(doc.path(&["header", "comparable"]).and_then(Json::as_bool), Some(false));
        let table = end_to_end_table(&outcome(false));
        for def in metrics::end_to_end() {
            assert!(table.contains(def.name), "{} missing from the table", def.name);
        }
        assert!(header.text().contains("SMOKE"));
    }
}
