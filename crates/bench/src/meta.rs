//! What the three committed artifacts share: the `generated` block, the
//! golden-file check, and how the bins write them.
//!
//! `BENCH_figure1.json`, `BENCH_latency.json` and `BENCH_churn.json` are
//! exact functions of the code — message counts and virtual time, no wall
//! clock, nothing read from the host — so the committed files are **golden
//! files**: tier-1 regenerates each from its default configuration and
//! demands the same bytes ([`golden_mismatch`]). The `generated` block
//! records the configuration a reader needs to interpret the points.

/// Generation metadata embedded in a `BENCH_*.json` artifact. The fields
/// that vary per bench (clients, words, items…) live in `workload`, a
/// flat name→value map — one struct serves both artifacts.
#[derive(Debug, Clone)]
pub struct GenMeta {
    pub seed: u64,
    /// Overlay size the sweep ran against.
    pub peers: usize,
    /// Total queries driven (summed over clients/configurations).
    pub queries: usize,
    /// Bench-specific workload knobs, name-sorted for stable output.
    pub workload: std::collections::BTreeMap<&'static str, u64>,
}

sqo_obs::json_record! { GenMeta { seed, peers, queries, workload }; }

impl GenMeta {
    pub fn new(seed: u64, peers: usize, queries: usize) -> Self {
        Self { seed, peers, queries, workload: std::collections::BTreeMap::new() }
    }

    pub fn workload(mut self, name: &'static str, value: u64) -> Self {
        self.workload.insert(name, value);
        self
    }
}

/// Write `text` to `path`, or print `<bin>: <path>: <error>` and exit 2,
/// the bins' usage-error status, instead of panicking after a whole run.
pub fn write_or_exit(bin: &str, path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("{bin}: {path}: {e}");
        std::process::exit(2);
    }
}

/// Compare a freshly built artifact with the committed golden file.
/// `None` when they are equal byte for byte; otherwise a message naming
/// the first differing line of `file` and the command (`bin`) that
/// regenerates it.
pub fn golden_mismatch(file: &str, bin: &str, committed: &str, fresh: &str) -> Option<String> {
    if committed == fresh {
        return None;
    }
    let (mut old, mut new) = (committed.split('\n'), fresh.split('\n'));
    let mut line = 1;
    let (was, now) = loop {
        match (old.next(), new.next()) {
            (a, b) if a == b && a.is_some() => line += 1,
            (a, b) => break (a.unwrap_or("<end of file>"), b.unwrap_or("<end of file>")),
        }
    };
    Some(format!(
        "{file} is not what the code generates; first difference at line {line}:\n  \
         committed: {}\n  generated: {}\n\
         if the change is intended: cargo run --release -p sqo-bench --bin {bin}   \
         (from the repository root), then review `git diff {file}`",
        was.trim_start(),
        now.trim_start(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_meta_serializes_with_workload() {
        let m = GenMeta::new(73, 256, 288).workload("words", 2000).workload("clients_max", 16);
        let s = sqo_obs::to_json(&m);
        assert!(s.contains("\"seed\":73") && s.contains("\"words\":2000"), "{s}");
    }

    #[test]
    fn golden_mismatch_names_the_first_differing_line_and_the_command() {
        let committed = "{\n  \"p99_us\": 15560,\n  \"max_us\": 15560\n}";
        assert_eq!(golden_mismatch("BENCH_x.json", "x", committed, committed), None);
        let edited = committed.replacen("15560", "15561", 1);
        let msg = golden_mismatch("BENCH_x.json", "x", committed, &edited).expect("one digit off");
        assert!(msg.contains("line 2") && msg.contains("\"p99_us\": 15561"), "{msg}");
        assert!(msg.contains("cargo run --release -p sqo-bench --bin x"), "{msg}");
        // A truncated file differs at the line the shorter side ends on.
        let msg = golden_mismatch("BENCH_x.json", "x", committed, "{").expect("truncated");
        assert!(msg.contains("line 2") && msg.contains("<end of file>"), "{msg}");
        // Same lines, different bytes (a trailing newline) still differs.
        let trailing = format!("{committed}\n");
        assert!(golden_mismatch("BENCH_x.json", "x", committed, &trailing).is_some());
    }
}
