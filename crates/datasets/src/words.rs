//! Synthetic substitute for the paper's first evaluation dataset:
//! "106704 single words from the English bible, with word lengths from 5 to
//! 14 and an average length of 6.46" (§6).
//!
//! We cannot ship the original word list, so this module generates a
//! deterministic English-like vocabulary matched to the published
//! statistics: the same count, the same length range, a mean length within
//! a hair of 6.46, and natural letter-bigram skew (so q-gram posting lists
//! are realistically non-uniform — the property that actually drives the
//! similarity operators' traffic). See DESIGN.md §2 for the substitution
//! argument.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashSet;

/// Size of the paper's bible-words dataset.
pub const BIBLE_WORD_COUNT: usize = 106_704;

/// Length weights for lengths 5..=14, tuned so the mean lands at ≈6.46
/// (the paper reports 6.46 over the same range).
const LENGTH_WEIGHTS: [u32; 10] = [42, 24, 14, 8, 4, 3, 2, 1, 1, 1];

/// English-ish letter model: likely successors per letter (repetitions
/// encode weight). Derived from common digraph frequencies; exactness is
/// irrelevant — what matters is a skewed, natural-looking bigram
/// distribution.
const SUCCESSORS: [(&str, &str); 27] = [
    ("a", "nnnnnnnnttttttrrrrllllsssscdmgbvpyi"),
    ("b", "eeeeeaaoluriy"),
    ("c", "oooooohhhhheeeaaktiru"),
    ("d", "eeeeeeeiiiaosuryl"),
    ("e", "rrrrrrrrrrnnnnnnssssssdddddaltcmvpyigfx"),
    ("f", "oooooeeeairlu"),
    ("g", "eeeehhhaoirlnu"),
    ("h", "eeeeeeeeeeeeaaaaaoiitruy"),
    ("i", "nnnnnnnnnnttttssssccccoolldmrgvfea"),
    ("j", "oueea"),
    ("k", "eeeeiinsaly"),
    ("l", "eeeeeeaaaiiiloudsty"),
    ("m", "eeeeeaaaoiipbuy"),
    ("n", "gggggggdddddttttteeeeeccssaoiukvy"),
    ("o", "nnnnnnrrrrrffffuuumttllwsvpdckgi"),
    ("p", "eeeeaaaorrlihtu"),
    ("q", "uuuuu"),
    ("r", "eeeeeeeeeeaaaaiiiootsdmnlcyu"),
    ("s", "tttttttteeeeeehhhhaaaioucpslmkw"),
    ("t", "hhhhhhhhhhhheeeeeeiiiaaaoorsutlwy"),
    ("u", "rrrrrnnnnsssstttllmpgcdbei"),
    ("v", "eeeeeiiaoy"),
    ("w", "aaaaiiihhheeeoonr"),
    ("x", "ptaeci"),
    ("y", "eosai"),
    ("z", "eaoiz"),
    // Word starts (index 26): overall initial-letter distribution.
    ("^", "ttttttttssssssaaaaaawwwwccccbbbbppphhhhffffmmmdddrrrlllgeeiounvjky"),
];

fn next_letter(rng: &mut StdRng, prev: Option<u8>) -> u8 {
    let table = match prev {
        Some(c) => SUCCESSORS[(c - b'a') as usize].1,
        None => SUCCESSORS[26].1,
    };
    let bytes = table.as_bytes();
    bytes[rng.gen_range(0..bytes.len())]
}

/// Sample a word length in 5..=14 under [`LENGTH_WEIGHTS`].
fn sample_length(rng: &mut StdRng) -> usize {
    let total: u32 = LENGTH_WEIGHTS.iter().sum();
    let mut x = rng.gen_range(0..total);
    for (i, &w) in LENGTH_WEIGHTS.iter().enumerate() {
        if x < w {
            return 5 + i;
        }
        x -= w;
    }
    unreachable!("weights cover the range");
}

/// One generated word of exactly `len` letters.
pub(crate) fn generate_word(rng: &mut StdRng, len: usize) -> String {
    let mut word = String::with_capacity(len);
    let mut prev = None;
    for _ in 0..len {
        let c = next_letter(rng, prev);
        word.push(c as char);
        prev = Some(c);
    }
    word
}

/// Generate `count` **distinct** bible-like words, deterministically for a
/// given seed. Lengths lie in 5..=14 with mean ≈ 6.46.
pub fn bible_words(count: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = FxHashSet::with_capacity_and_hasher(count * 2, Default::default());
    let mut words = Vec::with_capacity(count);
    while words.len() < count {
        let len = sample_length(&mut rng);
        let w = generate_word(&mut rng, len);
        if seen.insert(w.clone()) {
            words.push(w);
        }
    }
    words
}

/// (min, max, mean) character lengths — the datasets' tests check the
/// generators' length distributions with it.
pub fn length_stats(words: &[String]) -> (usize, usize, f64) {
    let mut min = usize::MAX;
    let mut max = 0;
    let mut sum = 0usize;
    for w in words {
        let l = w.chars().count();
        min = min.min(l);
        max = max.max(l);
        sum += l;
    }
    if words.is_empty() {
        (0, 0, 0.0)
    } else {
        (min, max, sum as f64 / words.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_statistics() {
        let words = bible_words(20_000, 1);
        assert_eq!(words.len(), 20_000);
        let (min, max, mean) = length_stats(&words);
        assert!(min >= 5, "min length {min}");
        assert!(max <= 14, "max length {max}");
        assert!((mean - 6.46).abs() < 0.25, "mean length {mean:.3} too far from the paper's 6.46");
    }

    #[test]
    fn words_are_distinct() {
        let words = bible_words(5_000, 2);
        let set: FxHashSet<&String> = words.iter().collect();
        assert_eq!(set.len(), words.len());
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(bible_words(100, 7), bible_words(100, 7));
        assert_ne!(bible_words(100, 7), bible_words(100, 8));
    }

    #[test]
    fn letters_only() {
        for w in bible_words(500, 3) {
            assert!(w.chars().all(|c| c.is_ascii_lowercase()), "non-letter in {w:?}");
        }
    }

    #[test]
    fn bigram_distribution_is_skewed() {
        // Natural-language-like skew: the most common bigram should be much
        // more frequent than the median one.
        let words = bible_words(5_000, 4);
        let mut counts: std::collections::HashMap<(char, char), usize> = Default::default();
        for w in &words {
            let cs: Vec<char> = w.chars().collect();
            for p in cs.windows(2) {
                *counts.entry((p[0], p[1])).or_insert(0) += 1;
            }
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top = freqs[0];
        let median = freqs[freqs.len() / 2];
        assert!(top >= median * 10, "bigram skew too flat: top {top}, median {median}");
    }
}
