//! `BENCH_figure1.json` is the golden file of the default §6 sweep
//! (`sqo_bench::figure1`): this test rebuilds it in-process and demands the
//! committed bytes, so the §6 assertions in `sqo-bench`'s `figure1`,
//! `routing`, `storage_overhead` and `ablation` tests, which read the
//! committed file, read what the code generates. Regenerate with
//! `cargo run --release -p sqo-bench --bin figure1` from the repository
//! root, and review the diff.

use sqo_bench::figure1::{artifact, run_figure1, Figure1Config};
use sqo_bench::meta::golden_mismatch;

/// Any drift in an operator, the overlay or the write path, a resized
/// sweep, and a stale or hand-edited file all fail here — in a debug build
/// (tier-1) and in a release build (CI) alike.
#[test]
fn committed_artifact_is_what_the_default_sweep_generates() {
    let path = format!("{}/BENCH_figure1.json", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let cfg = Figure1Config::default();
    let fresh = artifact(&cfg, &run_figure1(&cfg, |_| {}));
    if let Some(msg) = golden_mismatch("BENCH_figure1.json", "figure1", &committed, &fresh) {
        panic!("{msg}");
    }
}
