//! Artifact schema metadata shared by the bench binaries.
//!
//! Every committed `BENCH_*.json` artifact carries a `schema_version` and
//! a `generated` block (seed, workload sizes, toolchain) so the
//! regression gate ([`crate::regress`]) can refuse to diff a fresh sweep
//! against a baseline produced by a different schema, workload or
//! compiler — a silent apples-to-oranges comparison is worse than no
//! gate at all.

use serde::Serialize;

/// Version of the `BENCH_*.json` artifact envelope. Bump whenever the
/// shape of the points or the meaning of a compared metric changes; the
/// regression gate exits with [`crate::regress::EXIT_MISMATCH`] on any
/// version difference.
pub const SCHEMA_VERSION: u32 = 3;

/// `rustc -V` of the toolchain that produced an artifact, or `"unknown"`
/// when the compiler is not on `PATH` (the artifact stays usable; the
/// gate only warns on toolchain drift, it does not refuse).
pub fn toolchain() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Generation metadata embedded in a `BENCH_*.json` artifact. The fields
/// that vary per bench (clients, words, items…) live in `workload`, a
/// flat name→value map — one struct serves both artifacts.
#[derive(Debug, Clone, Serialize)]
pub struct GenMeta {
    pub seed: u64,
    /// Overlay size the sweep ran against.
    pub peers: usize,
    /// Total queries driven (summed over clients/configurations).
    pub queries: usize,
    pub toolchain: String,
    /// Bench-specific workload knobs, name-sorted for stable output.
    pub workload: std::collections::BTreeMap<&'static str, u64>,
}

impl GenMeta {
    pub fn new(seed: u64, peers: usize, queries: usize) -> Self {
        Self {
            seed,
            peers,
            queries,
            toolchain: toolchain(),
            workload: std::collections::BTreeMap::new(),
        }
    }

    pub fn workload(mut self, name: &'static str, value: u64) -> Self {
        self.workload.insert(name, value);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toolchain_reports_rustc_or_unknown() {
        let t = toolchain();
        assert!(t.starts_with("rustc") || t == "unknown", "{t}");
    }

    #[test]
    fn gen_meta_serializes_with_workload() {
        let m = GenMeta::new(73, 256, 288).workload("words", 2000).workload("clients_max", 16);
        let s = serde_json::to_string(&m).expect("serialize");
        assert!(s.contains("\"seed\":73") && s.contains("\"words\":2000"), "{s}");
    }
}
