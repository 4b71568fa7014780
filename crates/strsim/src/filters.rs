//! Candidate pruning filters for q-gram matching (Gravano et al. \[7\]).
//!
//! Algorithm 2 of the paper applies, per retrieved posting, the *position*
//! filter and the *length* filter (line 8), and — across all probed grams —
//! the *count* filter. All three are **sound**: they never reject a pair with
//! `edit(s1, s2) <= d`. They are not complete; survivors still go through the
//! final edit-distance verification.

/// Configuration switching individual filters on and off.
///
/// All filters default to enabled; the ablation benches (`sqo-bench`) flip
/// them individually to measure how much candidate traffic each one saves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    pub length: bool,
    pub position: bool,
    pub count: bool,
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self { length: true, position: true, count: true }
    }
}

impl FilterConfig {
    /// All filters disabled (every gram match becomes a candidate).
    pub fn none() -> Self {
        Self { length: false, position: false, count: false }
    }
}

/// Minimum number of q-grams two strings of lengths `len1`, `len2` must share
/// when their edit distance is at most `d` (unpadded overlapping q-grams):
///
/// ```text
/// max(len1, len2) - q + 1 - d·q
/// ```
///
/// A value `<= 0` means the filter cannot prune anything for these lengths.
/// See the crate docs for why this deviates from the paper's (typo'd)
/// formula. The arithmetic saturates: a distance bound too large to count
/// with (a query's `dist(..) < 2^62`) prunes nothing instead of
/// overflowing.
///
/// ```
/// use sqo_strsim::count_filter_threshold;
/// // "abcde" vs one substitution: 5 - 2 + 1 - 1*2 = 2 shared bigrams required.
/// assert_eq!(count_filter_threshold(5, 5, 2, 1), 2);
/// assert!(count_filter_threshold(4, 4, 3, 2) <= 0);
/// assert!(count_filter_threshold(4, 4, 3, usize::MAX) <= 0);
/// ```
pub fn count_filter_threshold(len1: usize, len2: usize, q: usize, d: usize) -> i64 {
    let wide = |v: usize| i64::try_from(v).unwrap_or(i64::MAX);
    let m = wide(len1.max(len2));
    m.saturating_sub(wide(q)).saturating_add(1).saturating_sub(wide(d).saturating_mul(wide(q)))
}

/// Length of `s` in characters, the unit the filters and edit distances
/// count in. ASCII — the common case on the per-posting path — needs no
/// decoding.
#[inline]
pub fn char_len(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.chars().count()
    }
}

/// Length filter: strings within edit distance `d` differ in length by at
/// most `d`.
#[inline]
pub fn length_filter(len1: usize, len2: usize, d: usize) -> bool {
    len1.abs_diff(len2) <= d
}

/// Position filter: a q-gram common to two strings within distance `d`
/// cannot have shifted by more than `d` positions.
#[inline]
pub fn position_filter(pos1: u32, pos2: u32, d: usize) -> bool {
    (u64::from(pos1)).abs_diff(u64::from(pos2)) <= d as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::levenshtein;
    use crate::qgram::qgrams;
    use std::collections::HashMap;

    /// Multiset intersection size of the two strings' q-gram bags.
    fn shared_qgrams(a: &str, b: &str, q: usize) -> usize {
        let mut bag: HashMap<String, usize> = HashMap::new();
        for g in qgrams(a, q) {
            *bag.entry(g.gram).or_insert(0) += 1;
        }
        let mut shared = 0;
        for g in qgrams(b, q) {
            if let Some(c) = bag.get_mut(&g.gram) {
                if *c > 0 {
                    *c -= 1;
                    shared += 1;
                }
            }
        }
        shared
    }

    #[test]
    fn count_bound_is_sound_on_examples() {
        let pairs = [
            ("abcde", "abxde"),
            ("similar", "simular"),
            ("querying", "queryng"),
            ("painting", "paintings"),
            ("overlay", "overlay"),
        ];
        for (a, b) in pairs {
            let d = levenshtein(a, b);
            for q in 2..4 {
                let bound = count_filter_threshold(a.len(), b.len(), q, d);
                let shared = shared_qgrams(a, b, q) as i64;
                assert!(
                    shared >= bound,
                    "bound violated: {a:?} {b:?} q={q} d={d} shared={shared} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn papers_formula_would_be_unsound() {
        // Documented deviation: the paper's printed bound
        // max - 1 - (d-1)q rejects this true match at q=2, d=1.
        let (a, b) = ("abcde", "abxde");
        assert_eq!(levenshtein(a, b), 1);
        let paper_bound = a.len().max(b.len()) as i64 - 1;
        let shared = shared_qgrams(a, b, 2) as i64;
        assert!(shared < paper_bound, "expected the typo'd bound to over-prune");
        // Our bound keeps it.
        assert!(shared >= count_filter_threshold(a.len(), b.len(), 2, 1));
    }

    #[test]
    fn length_filter_basics() {
        assert!(length_filter(5, 5, 0));
        assert!(length_filter(5, 7, 2));
        assert!(!length_filter(5, 8, 2));
        assert!(length_filter(0, 3, 3));
    }

    #[test]
    fn position_filter_basics() {
        assert!(position_filter(4, 4, 0));
        assert!(position_filter(4, 6, 2));
        assert!(!position_filter(0, 3, 2));
    }

    #[test]
    fn default_config_enables_all() {
        let c = FilterConfig::default();
        assert!(c.length && c.position && c.count);
        let n = FilterConfig::none();
        assert!(!n.length && !n.position && !n.count);
    }
}
