//! # sqo-datasets — datasets and workloads for the paper's evaluation
//!
//! The paper evaluates on two string datasets we cannot ship (bible words,
//! painting titles); [`words`] and [`titles`] generate deterministic
//! synthetic equivalents matched to the published count/length statistics
//! (substitutions documented in DESIGN.md §2). [`cars`] generates the §3
//! car-market example database (with schema typos) used by the VQL examples,
//! and [`zipf`] draws the skewed search strings of the ablations. The crate
//! generates data and runs no query: the §6 query mix lives in `sqo-bench`.

pub mod cars;
pub mod titles;
pub mod words;
pub mod zipf;

pub use cars::{car_market, car_rows, dealer_rows, CarMarketConfig};
pub use titles::{painting_titles, MAX_TITLE_LEN, PAINTING_TITLE_COUNT};
pub use words::{bible_words, length_stats, BIBLE_WORD_COUNT};
pub use zipf::ZipfSampler;

use sqo_storage::triple::{Row, Value};

/// Turn a list of strings into single-attribute rows (the §6 datasets are
/// one-column relations).
pub fn string_rows(attr: &str, strings: &[String], oid_prefix: &str) -> Vec<Row> {
    strings
        .iter()
        .enumerate()
        .map(|(i, s)| Row::new(format!("{oid_prefix}:{i}"), [(attr, Value::from(s.clone()))]))
        .collect()
}
