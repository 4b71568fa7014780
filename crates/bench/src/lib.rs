//! # sqo-bench — the paper's evaluation, regenerated
//!
//! Library half of the evaluation harness. The six binaries (`figure1`,
//! `routing_cost`, `storage_overhead`, `ablation`, `latency`, `churn`)
//! are thin CLI wrappers around the functions here, which are themselves
//! under test.
//!
//! The §6 evaluation has a single figure with four panels — messages and
//! data volume over network size, for the bible-words and painting-titles
//! datasets — plus analytic claims in §2 (routing cost ≈ 0.5·log₂N) and §8
//! (storage overhead linear in the attribute count). Every one of those is
//! reproduced here.
//!
//! Everything this crate measures is a message count or virtual time, so
//! its two committed artifacts — `BENCH_latency.json` ([`latency`]) and
//! `BENCH_churn.json` ([`churn`]) — are golden files: tier-1 rebuilds each
//! in-process and compares bytes ([`meta::golden_mismatch`]). Wall-clock
//! speed is not measured here; that is the `benchmark/` package and
//! `BENCHMARK.json`.

pub mod ablation;
pub mod churn;
pub mod figure1;
pub mod latency;
pub mod meta;
pub mod routing;
pub mod storage_overhead;
pub mod workload;
