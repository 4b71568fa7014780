//! # sqo-strsim — approximate string matching substrate
//!
//! The similarity operators of the paper (Karnstedt et al., *Similarity
//! Queries on Structured Data in Structured Overlays*, ICDE 2006) are built on
//! classic approximate-string-matching machinery:
//!
//! * **edit distance** (Levenshtein) as the similarity measure for strings
//!   (paper §3: `dist` is "the edit distance for strings"),
//! * **positional q-grams** (Gravano et al., VLDB 2001 \[7\]) with count,
//!   length and position filters to prune candidates cheaply,
//! * **q-samples** (Schallehn et al., CoopIS 2004 \[11\]): probing only
//!   `d + 1` non-overlapping q-grams of the query string, which trades
//!   candidate quality for far fewer index probes.
//!
//! This crate implements that substrate as pure, allocation-conscious
//! functions with no overlay dependencies, so it can be unit- and
//! property-tested in isolation and reused by the operators in `sqo-core`.
//!
//! ## Filter soundness
//!
//! The paper states the q-gram count bound as
//! `max(|s1|,|s2|) - 1 - (d-1)·q`, which is a typo of the (sound) bound from
//! Gravano et al. \[7\] for unpadded overlapping q-grams:
//!
//! ```text
//! |G(s1) ∩ G(s2)|  ≥  max(|s1|, |s2|) - q + 1 - d·q
//! ```
//!
//! (a string of length `n` has `n - q + 1` q-grams and a single edit operation
//! can destroy at most `q` of them). We implement the sound bound; the
//! property tests in [`filters`] verify it never prunes a true match.

pub mod edit;
pub mod filters;
pub mod numeric;
pub mod qgram;
pub mod qsample;

pub use edit::{levenshtein, levenshtein_bounded, within_distance, BoundedLevenshtein};
pub use filters::{char_len, count_filter_threshold, length_filter, position_filter, FilterConfig};
pub use numeric::interval_around;
pub use qgram::{padded_qgrams, qgram_slices, qgram_spans, qgrams, PositionalQGram};
pub use qsample::{qsamples, MIN_SAMPLABLE_FACTOR};
