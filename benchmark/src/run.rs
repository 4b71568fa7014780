//! How one workload is measured.
//!
//! Every host time is speed-normalised (see [`crate::pace`]): the machine
//! changes speed under the benchmark, so timed intervals are cut into
//! slices with a reference kernel between them. Raw wall-clock medians and
//! the machine's speed during the run are reported beside the normalised
//! numbers.
//!
//! *Untraced* (`measure`): repeated fresh set-ups give `setup_s`; the gate
//! checks a sample of the workload's answers against the oracle; then a
//! child process of this same program builds the world once, warms up with
//! one untimed repetition and repeats the fixed-work measured phase until
//! `--seconds` have passed, each time on fresh engines thawed from one warm
//! snapshot. The child's `VmHWM` is
//! `peak_rss_mb`; host metrics are medians over its repetitions, and all
//! repetitions must agree exactly on every model metric.
//!
//! *Traced* (`trace`): one untraced and one traced repetition in this
//! process, benchmark-side spans, the unit-cost loops, the per-layer
//! table. End-to-end host numbers never come from a traced run.

use crate::json;
use crate::metrics::LAYERS;
use crate::span::Tracer;
use crate::stats::{median, supported_percentile, Summary};
use crate::surface::Json;
use crate::workloads::{peak_rss_bytes, Gate, Layers, Rep, Size, TraceCtx, Workload, World};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Everything one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub reps: usize,
    /// End-to-end metrics by name (host ones with their noise estimate).
    /// `setup_s` and `ops_per_s` are at nominal machine speed.
    pub e2e: BTreeMap<&'static str, Summary>,
    /// Median of the same two as the wall clock read them.
    pub raw: BTreeMap<&'static str, f64>,
    /// Machine speed over every timed slice of the run, 1 = nominal.
    pub machine_speed: Summary,
    /// Per-layer metrics; traced runs only.
    pub layers: Option<Layers>,
    pub attempted: u64,
    pub failed: u64,
    /// No op failed, and every repetition agreed on every model metric.
    pub correct: bool,
    pub notes: Vec<String>,
}

/// Repeat `rep` until `seconds` have passed (at least `min_reps` times).
/// This is the harness's own op loop: `--selftest` drives it with a
/// synthetic repetition to prove an injected slowdown is caught.
pub fn repeat(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> Rep) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        reps.push(rep());
    }
    reps
}

/// Set-up times of one run: as the clock read them, at nominal speed, and
/// the machine's speed during each.
#[derive(Default)]
struct Setups {
    raw: Vec<f64>,
    normalised: Vec<f64>,
    speeds: Vec<f64>,
}

/// `setup_s`: the median of at least five fresh set-ups — up to nine where
/// one is quick — doubled once if the two halves of the sample disagree.
/// Returns the samples and the last world built.
fn time_setups(workload: Workload, seed: u64, size: Size) -> (Setups, Box<dyn World>) {
    let mut setups = Setups::default();
    let build = |setups: &mut Setups| {
        let (mut pacer, mut tr) = (size.pacer(), Tracer::off());
        pacer.begin(&mut tr);
        let world = workload.build(seed, size, &mut tr);
        pacer.end(&mut tr);
        setups.raw.push(pacer.raw_s());
        setups.normalised.push(pacer.normalised_s());
        setups.speeds.extend_from_slice(pacer.speeds());
        world
    };
    let mut world = build(&mut setups);
    let planned = size.pick(((0.75 / setups.raw[0]).ceil() as usize).clamp(5, 9), 2);
    let mut target = planned;
    while setups.raw.len() < target {
        world = build(&mut setups);
        if setups.raw.len() == planned && planned >= 5 {
            let (a, b) = setups.normalised.split_at(planned / 2);
            if (median(a) - median(b)).abs() > 0.1 * median(&setups.normalised) {
                target = 2 * planned;
            }
        }
    }
    (setups, world)
}

/// Fold set-ups, repetitions and gate into an [`Outcome`].
fn outcome_of(
    workload: Workload,
    seed: u64,
    setups: &Setups,
    reps: &[Rep],
    peak_rss: u64,
    gate: &Gate,
    layers: Option<Layers>,
) -> Outcome {
    let first = &reps[0];
    let ops = first.ops.max(1) as f64;
    let mut notes = gate.notes.clone();
    let mut e2e = BTreeMap::new();
    let mut raw = BTreeMap::new();
    e2e.insert("setup_s", Summary::of(&setups.normalised));
    raw.insert("setup_s", median(&setups.raw));
    let rates: Vec<f64> = reps.iter().map(|r| r.ops as f64 / r.norm_s).collect();
    e2e.insert("ops_per_s", Summary::of(&rates));
    let raw_rates: Vec<f64> = reps.iter().map(|r| r.ops as f64 / r.wall_s).collect();
    raw.insert("ops_per_s", median(&raw_rates));
    e2e.insert("peak_rss_mb", Summary::exact(peak_rss as f64 / 1e6));
    e2e.insert("msgs_per_op", Summary::exact(first.msgs as f64 / ops));
    if let Some(bytes) = first.bytes {
        e2e.insert("kb_per_op", Summary::exact(bytes as f64 / 1024.0 / ops));
    }
    if let Some((p50, p95, samples)) = first.virt_us {
        e2e.insert("virt_p50_ms", Summary::exact(p50 as f64 / 1e3));
        e2e.insert("virt_p95_ms", Summary::exact(p95 as f64 / 1e3));
        if supported_percentile(samples) < Some(95.0) {
            notes.push(format!(
                "virt_p95_ms rests on {samples} samples: fewer than ten lie beyond it"
            ));
        }
    }
    let attempted = gate.attempted + reps.iter().map(|r| r.ops).sum::<u64>();
    let failed = gate.failed + reps.iter().map(|r| r.failed).sum::<u64>();
    e2e.insert("failed_share", Summary::exact(failed as f64 / attempted.max(1) as f64));
    let agree = model_agrees(reps, &mut notes);
    let speeds: Vec<f64> =
        setups.speeds.iter().chain(reps.iter().flat_map(|r| &r.speeds)).copied().collect();
    Outcome {
        workload,
        seed,
        reps: reps.len(),
        e2e,
        raw,
        machine_speed: Summary::of(&speeds),
        layers,
        attempted,
        failed,
        correct: failed == 0 && agree,
        notes,
    }
}

fn model_agrees(reps: &[Rep], notes: &mut Vec<String>) -> bool {
    let agree = reps.windows(2).all(|w| w[0].model() == w[1].model());
    if !agree {
        notes.push("repetitions disagree on a model metric: the run is not deterministic".into());
    }
    agree
}

/// The untraced run.
pub fn measure(workload: Workload, seed: u64, seconds: f64, size: Size) -> Result<Outcome, String> {
    let (setups, mut world) = time_setups(workload, seed, size);
    let gate = world.gate();
    drop(world);

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if size == Size::Smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before returning.
    let output = cmd.output().map_err(|e| format!("spawning the measuring child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the measuring child failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the measuring child printed nothing")?;
    let (reps, peak_rss) = decode_child(line)?;

    Ok(outcome_of(workload, seed, &setups, &reps, peak_rss, &gate, None))
}

/// The measuring child: build once, warm up, repeat, print one JSON line.
/// The first repetition in a process pays for first-touch page faults and
/// a growing heap (35 % slower on `ingest-checkpoint`); users of a running
/// system do not, so one untimed repetition comes first.
pub fn child(workload: Workload, seed: u64, seconds: f64, size: Size) {
    let mut world = workload.build(seed, size, &mut Tracer::off());
    world.rep(&mut Tracer::off(), &mut crate::pace::Pacer::off());
    let reps =
        repeat(seconds, size.pick(2, 1), || world.rep(&mut Tracer::off(), &mut size.pacer()));
    println!("{}", encode_child(&reps, peak_rss_bytes()));
}

fn encode_child(reps: &[Rep], peak_rss: u64) -> String {
    let reps: Vec<String> = reps
        .iter()
        .map(|r| {
            let counts: Vec<(String, String)> =
                r.counts.iter().map(|(k, v)| (k.to_string(), json::num(*v))).collect();
            json::object(&[
                ("ops", r.ops.to_string()),
                ("wall_s", json::num(r.wall_s)),
                ("norm_s", json::num(r.norm_s)),
                (
                    "speeds",
                    format!(
                        "[{}]",
                        r.speeds.iter().map(|x| json::num(*x)).collect::<Vec<_>>().join(",")
                    ),
                ),
                ("msgs", r.msgs.to_string()),
                ("bytes", r.bytes.map_or("null".into(), |b| b.to_string())),
                ("virt_us", r.virt_us.map_or("null".into(), |(a, b, n)| format!("[{a},{b},{n}]"))),
                ("failed", r.failed.to_string()),
                // u64 does not survive a trip through a JSON number.
                ("fingerprint", json::string(&r.fingerprint.to_string())),
                ("counts", json::object(&counts)),
            ])
        })
        .collect();
    json::object(&[("peak_rss", peak_rss.to_string()), ("reps", format!("[{}]", reps.join(",")))])
}

fn decode_child(line: &str) -> Result<(Vec<Rep>, u64), String> {
    let doc = crate::surface::parse_json(line).map_err(|e| format!("child output: {e}"))?;
    let field = |j: &Json, k: &str| j.get(k).cloned().ok_or(format!("child output lacks {k:?}"));
    let int = |j: &Json, k: &str| field(j, k)?.as_u64().ok_or(format!("{k:?} is not a count"));
    let peak_rss = int(&doc, "peak_rss")?;
    let mut reps = Vec::new();
    for r in field(&doc, "reps")?.as_array().ok_or("reps is not a list")? {
        let virt_us = match field(r, "virt_us")?.as_array() {
            Some([a, b, n]) => Some((
                a.as_u64().ok_or("virt_us")?,
                b.as_u64().ok_or("virt_us")?,
                n.as_u64().ok_or("virt_us")? as usize,
            )),
            _ => None,
        };
        let mut counts = BTreeMap::new();
        for (k, v) in field(r, "counts")?.as_object().ok_or("counts is not an object")? {
            // Map the name back to its static spelling.
            let def = LAYERS.iter().find(|d| d.name == k).ok_or(format!("unknown count {k:?}"))?;
            counts.insert(def.name, v.as_f64().ok_or("a count is not a number")?);
        }
        reps.push(Rep {
            ops: int(r, "ops")?,
            wall_s: field(r, "wall_s")?.as_f64().ok_or("wall_s")?,
            norm_s: field(r, "norm_s")?.as_f64().ok_or("norm_s")?,
            speeds: field(r, "speeds")?
                .as_array()
                .ok_or("speeds")?
                .iter()
                .map(|x| x.as_f64().ok_or("a speed is not a number"))
                .collect::<Result<_, _>>()?,
            msgs: int(r, "msgs")?,
            bytes: field(r, "bytes")?.as_u64(),
            virt_us,
            failed: int(r, "failed")?,
            counts,
            fingerprint: field(r, "fingerprint")?
                .as_str()
                .and_then(|s| s.parse().ok())
                .ok_or("fingerprint")?,
        });
    }
    if reps.is_empty() {
        return Err("the measuring child ran no repetition".into());
    }
    Ok((reps, peak_rss))
}

/// The traced run: set-up, gate, a warm-up, one untraced and one traced
/// repetition, then the layers.
pub fn trace(workload: Workload, seed: u64, size: Size) -> Result<(Outcome, Tracer), String> {
    let mut tr = Tracer::on();
    let mut pacer = size.pacer();
    pacer.begin(&mut tr);
    let mut world = workload.build(seed, size, &mut tr);
    pacer.end(&mut tr);
    let setups = Setups {
        raw: vec![pacer.raw_s()],
        normalised: vec![pacer.normalised_s()],
        speeds: pacer.speeds().to_vec(),
    };
    let gate = world.gate();

    // Warm up as the measuring child does, or the untraced repetition —
    // the first — would look slower than the traced one.
    world.rep(&mut Tracer::off(), &mut crate::pace::Pacer::off());
    let untraced = world.rep(&mut Tracer::off(), &mut size.pacer());
    let traced = world.rep(&mut tr, &mut size.pacer());

    let mut layers = Layers::new();
    let ctx = TraceCtx { rep: &traced, tr: &tr, size, setup_factor: pacer.factor() };
    world.layers(&ctx, &mut layers);
    for (name, value) in &traced.counts {
        layers.insert(name, *value);
    }
    layers.insert("bench.trace_overhead_ratio", traced.norm_s / untraced.norm_s);
    layers.insert("bench.span_coverage", tr.coverage("workload"));
    let reps = [untraced, traced];
    let mut outcome =
        outcome_of(workload, seed, &setups, &reps, peak_rss_bytes(), &gate, Some(layers));
    let speed = outcome.machine_speed.median;
    if let Some(layers) = &mut outcome.layers {
        layers.insert("bench.machine_speed", speed);
    }
    Ok((outcome, tr))
}

/// Where traces go: `benchmark/out/`, beside this package's manifest.
pub fn write_trace(workload: Workload, tr: &Tracer) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/trace-{}.json", workload.name());
    std::fs::write(&path, tr.to_chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall_s: f64) -> Rep {
        let mut counts = BTreeMap::new();
        counts.insert("cache.hit_rate", 0.756_f64);
        Rep {
            ops: 1_000,
            wall_s,
            norm_s: wall_s / 2.0,
            speeds: vec![0.5, 0.5],
            msgs: 250_000,
            bytes: Some(87_000_000),
            virt_us: Some((77_000, 139_000, 1_000)),
            failed: 0,
            counts,
            fingerprint: u64::MAX - 5,
        }
    }

    #[test]
    fn child_line_round_trips() {
        let reps = vec![rep(3.0), rep(3.1)];
        let (back, rss) = decode_child(&encode_child(&reps, 123_456_789)).expect("decodes");
        assert_eq!(back, reps);
        assert_eq!(rss, 123_456_789);
    }

    #[test]
    fn outcome_takes_medians_and_counts_failures() {
        let reps = vec![rep(2.0), rep(4.0), rep(2.5)];
        let gate = Gate { attempted: 200, failed: 1, notes: vec![] };
        let setups = Setups {
            raw: vec![0.3, 0.1, 0.2],
            normalised: vec![0.15, 0.05, 0.1],
            speeds: vec![0.5; 3],
        };
        let o = outcome_of(Workload::WordsMix, 7, &setups, &reps, 50_000_000, &gate, None);
        // Normalised numbers are reported, raw ones kept beside them.
        assert_eq!((o.e2e["setup_s"].median, o.raw["setup_s"]), (0.1, 0.2));
        assert_eq!((o.e2e["ops_per_s"].median, o.raw["ops_per_s"]), (800.0, 400.0));
        assert_eq!(o.e2e["ops_per_s"].n, 3);
        assert_eq!(o.machine_speed.median, 0.5);
        assert_eq!(o.e2e["msgs_per_op"].median, 250.0);
        assert_eq!(o.e2e["virt_p95_ms"].median, 139.0);
        assert_eq!((o.attempted, o.failed, o.correct), (3_200, 1, false));
        assert!(o.notes.is_empty(), "1 000 samples carry a p95, and the model agrees");
        let mut other = rep(2.0);
        other.msgs += 1;
        assert!(!model_agrees(&[rep(2.0), other], &mut Vec::new()));
    }

    #[test]
    fn repeat_honours_time_and_minimum() {
        let mut calls = 0;
        let reps = repeat(0.0, 3, || {
            calls += 1;
            rep(1.0)
        });
        assert_eq!((reps.len(), calls), (3, 3));
    }
}
