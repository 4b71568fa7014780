//! `sqo-benchmark`: the one wall-clock and model-cost benchmark of the sqo
//! workspace. It measures every layer from outside, through public
//! functions only (see `surface.rs`), and claims no gain itself.
//! README.md beside this package is the glossary and the method.

mod compare;
mod json;
mod metrics;
mod oracle;
mod pace;
mod report;
mod rng;
mod run;
mod span;
mod stats;
mod surface;
mod units;
mod workloads;

use report::Header;
use std::process::ExitCode;
use workloads::{Size, Workload, WORKLOADS};

/// The seed the workloads were sized with, and the one held back from
/// sizing: a claim made on the first must also hold on the second.
const DEFAULT_SEED: u64 = 11;
const HOLDOUT_SEED: u64 = 4242;

const USAGE: &str = "\
usage:
  sqo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload; the last line of stdout is the JSON result
  sqo-benchmark suite [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
      every workload, untraced then traced; prints every metric by name
  sqo-benchmark trace <workload> [--seed <n>] [--smoke]
      the traced run alone; writes benchmark/out/trace-<workload>.json
  sqo-benchmark compare <A.json> <B.json>
      two suite documents (written with --out), row by row
  sqo-benchmark --selftest
      prove that compare flags a slowdown injected in the harness's op loop
workloads: words-mix words-zipf-cached titles-scan ingest-checkpoint scale-core";

/// Flags after the subcommand; positionals are left in `rest`.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    rest: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
        out: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 3_600.0) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.rest.push(arg.clone()),
        }
    }
    Ok(a)
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))
}

fn size_of(a: &Args) -> Size {
    if a.smoke {
        Size::Smoke
    } else {
        Size::Full
    }
}

/// Driver mode: one workload, tables first, the JSON result last.
fn one(a: &Args) -> Result<bool, String> {
    let workload = workload_named(a.workload.as_deref().unwrap_or_default())?;
    let size = size_of(a);
    print!("{}", Header::collect(a.seed, a.seconds, a.smoke).text());
    let outcome = if a.trace {
        let (outcome, tr) = run::trace(workload, a.seed, size)?;
        print!("{}", report::end_to_end_table(&outcome));
        print!("{}", report::per_layer_table(&outcome, &tr));
        println!("trace written to {}", run::write_trace(workload, &tr)?);
        outcome
    } else {
        let outcome = run::measure(workload, a.seed, a.seconds, size)?;
        print!("{}", report::end_to_end_table(&outcome));
        outcome
    };
    println!("{}", report::result_line(&outcome, a.trace));
    Ok(outcome.correct)
}

/// Every workload, untraced then traced.
fn suite(a: &Args) -> Result<bool, String> {
    let size = size_of(a);
    let seconds = if a.smoke { 0.0 } else { a.seconds };
    let header = Header::collect(a.seed, seconds, a.smoke);
    print!("{}", header.text());
    if a.seed == HOLDOUT_SEED {
        println!("seed {HOLDOUT_SEED} is the hold-out seed: not used while sizing the workloads");
    }
    let mut outcomes = Vec::new();
    for workload in WORKLOADS {
        let mut outcome = run::measure(workload, a.seed, seconds, size)?;
        let (traced, tr) = run::trace(workload, a.seed, size)?;
        // End-to-end numbers always come from the untraced run; the traced
        // one adds the layers and must agree on the model.
        for def in metrics::MODEL_E2E {
            if def.name != "failed_share" && outcome.e2e.get(def.name) != traced.e2e.get(def.name) {
                outcome.notes.push(format!("{}: traced and untraced runs disagree", def.name));
                outcome.correct = false;
            }
        }
        outcome.layers = traced.layers.clone();
        outcome.correct &= traced.correct;
        outcome.notes.extend(traced.notes.iter().cloned());
        print!("{}", report::end_to_end_table(&outcome));
        print!("{}", report::per_layer_table(&outcome, &tr));
        println!("trace written to {}\n", run::write_trace(workload, &tr)?);
        outcomes.push(outcome);
    }
    if let Some(path) = &a.out {
        std::fs::write(path, report::suite_document(&header, &outcomes))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("suite document written to {path}");
    }
    Ok(outcomes.iter().all(|o| o.correct))
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let Some(first) = argv.first() else { return Err(USAGE.into()) };
    match first.as_str() {
        "--selftest" => compare::selftest().map(|()| true),
        "-h" | "--help" => {
            println!("{USAGE}");
            Ok(true)
        }
        "suite" => suite(&parse(&argv[1..])?),
        "trace" => {
            let mut a = parse(&argv[1..])?;
            a.workload = a.rest.first().cloned();
            a.trace = true;
            one(&a)
        }
        // Regenerates BENCHMARK.json: `sqo-benchmark manifest > BENCHMARK.json`.
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        "compare" => match &argv[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err(USAGE.into()),
        },
        "child" => {
            let a = parse(&argv[1..])?;
            let workload = workload_named(a.rest.first().map_or("", String::as_str))?;
            run::child(workload, a.seed, a.seconds, size_of(&a));
            Ok(true)
        }
        _ => {
            let a = parse(argv)?;
            if a.workload.is_none() || !a.rest.is_empty() {
                return Err(USAGE.into());
            }
            one(&a)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        // A result was printed, but an op failed or a check did not hold.
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}
