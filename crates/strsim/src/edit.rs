//! Levenshtein edit distance.
//!
//! * [`levenshtein`] — the exact distance, two-row dynamic program,
//!   `O(|a|·|b|)` time and `O(min(|a|,|b|))` space. The reference the
//!   property tests compare against.
//! * [`BoundedLevenshtein`] — the verifier of the final step of the
//!   `Similar` operator (Algorithm 2, line 23 of the paper) and of the naive
//!   baseline's "compare the queried string to the data available locally".
//!   Both compare **one** query against many stored strings with a small
//!   bound (the paper's workload uses `d ≤ 5`), so everything that depends
//!   only on `(query, d)` is prepared once: the query's char length, whether
//!   it is ASCII, its decoded form, and the DP row and decode scratch, which
//!   the verifier owns. A comparison then allocates nothing per candidate.
//!   It fills only the diagonal band of width `2d + 1` and gives up once
//!   the distance provably exceeds `d`.
//! * [`levenshtein_bounded`] / [`within_distance`] — one-shot wrappers over
//!   a throw-away verifier, for callers with a single pair.
//!
//! **What a comparison costs.** [`BoundedLevenshtein::distance_of`] takes
//! the candidate with its length in chars, which the store keeps beside
//! every value: the length gate (`|len(s) − len(c)| > d` ⇒ no match, what
//! [`BoundedLevenshtein::admits_len`] answers for a scan that has only the
//! count) costs two loads and reads no text; for a survivor,
//! `chars == len()` says the candidate is ASCII, and its bytes are read
//! once, by the DP rows the band fills before it gives up. On the
//! titles-scan corpus the gate rejects 86–94 % of candidates at `d = 1…3`
//! and a survivor needs 2–5 rows. [`BoundedLevenshtein::distance`] is the
//! same for a bare `&str`: one pass to count its chars first.
//!
//! Distances are computed over Unicode scalar values, not bytes, so that a
//! multi-byte character counts as a single edit. Two ASCII strings have one
//! byte per scalar value, so that (common) case runs on the bytes as they
//! lie.

use crate::filters::char_len;
use std::borrow::Cow;

/// Exact Levenshtein distance between `a` and `b`.
///
/// ```
/// use sqo_strsim::levenshtein;
/// assert_eq!(levenshtein("kitten", "sitting"), 3);
/// assert_eq!(levenshtein("", "abc"), 3);
/// assert_eq!(levenshtein("same", "same"), 0);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b)
}

fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    // Keep the shorter string in the inner dimension to minimize row size.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, &lc) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[short.len()]
}

/// Bounded Levenshtein distance from one prepared query to many candidates.
///
/// ```
/// use sqo_strsim::BoundedLevenshtein;
/// let mut v = BoundedLevenshtein::new("kitten", 3);
/// assert_eq!(v.distance("sitting"), Some(3));
/// assert_eq!(v.distance("kitchen"), Some(2));
/// assert_eq!(v.distance("kindergarten"), None);
/// // With a stored char count: the same answers, and a gate on the count.
/// assert_eq!(v.distance_of("sitting", 7), Some(3));
/// assert!(v.admits_len(9) && !v.admits_len(10));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedLevenshtein<'q> {
    query: Cow<'q, str>,
    d: usize,
    /// Length of the query in chars (= bytes when `ascii`).
    len: usize,
    ascii: bool,
    /// The query decoded to scalar values, filled by the first comparison
    /// that cannot run on bytes.
    chars: Vec<char>,
    /// Decode scratch for such a comparison's candidate.
    scratch: Vec<char>,
    /// The DP row, one cell per query position, sized by the first
    /// comparison that reaches the DP.
    row: Vec<usize>,
}

impl<'q> BoundedLevenshtein<'q> {
    /// Prepare the verifier for `query` and bound `d`. Borrowing the query
    /// allocates nothing here; a long-lived verifier takes a `String`.
    pub fn new(query: impl Into<Cow<'q, str>>, d: usize) -> Self {
        let query = query.into();
        let len = char_len(&query);
        let ascii = len == query.len();
        Self { query, d, len, ascii, chars: Vec::new(), scratch: Vec::new(), row: Vec::new() }
    }

    /// The query this verifier was prepared for.
    pub fn query(&self) -> &str {
        &self.query
    }

    /// `Some(dist)` if `dist(query, candidate) <= d`, else `None`: the
    /// candidate's chars counted, then [`Self::distance_of`].
    pub fn distance(&mut self, candidate: &str) -> Option<usize> {
        // A string has at most one char per byte: too few bytes are too few
        // chars, known before they are counted.
        if self.len.saturating_sub(candidate.len()) > self.d {
            return None;
        }
        self.distance_of(candidate, char_len(candidate))
    }

    /// Whether a candidate of `chars` chars is inside the length window
    /// `|len(query) − chars| <= d`: the gate [`Self::distance_of`] opens
    /// with, for a scan that reads a stored count before it has the
    /// candidate's text.
    #[inline]
    pub fn admits_len(&self, chars: usize) -> bool {
        self.len.abs_diff(chars) <= self.d
    }

    /// [`Self::distance`] for a candidate whose length in chars is already
    /// known — stored beside it, as a posting and a triple record keep it.
    /// The length gate reads `chars` alone; `chars == candidate.len()`
    /// means the candidate is ASCII, so the byte path needs no `is_ascii`
    /// pass; and the candidate's bytes are read only inside the band DP.
    ///
    /// Runs in `O(d · |candidate|)` time: any cell `(i, j)` with
    /// `|i - j| > d` cannot lie on a path of cost `≤ d`.
    pub fn distance_of(&mut self, candidate: &str, chars: usize) -> Option<usize> {
        debug_assert_eq!(chars, char_len(candidate), "the char count of {candidate:?}");
        // The distance is at least the length difference…
        if !self.admits_len(chars) {
            return None;
        }
        // …and at most the longer length, so a larger bound buys nothing;
        // clamping it keeps `i + d` below from overflowing.
        let d = self.d.min(self.len.max(chars));
        if d == 0 {
            return (*self.query == *candidate).then_some(0);
        }
        if self.ascii && chars == candidate.len() {
            return banded(self.query.as_bytes(), candidate.as_bytes(), d, &mut self.row);
        }
        if self.chars.is_empty() {
            self.chars.extend(self.query.chars());
        }
        self.scratch.clear();
        self.scratch.extend(candidate.chars());
        banded(&self.chars, &self.scratch, d, &mut self.row)
    }
}

/// The banded DP over `query` (columns) and `cand` (rows), for
/// `1 <= d <= max(|query|, |cand|)` and `||query| - |cand|| <= d`. `row`
/// is scratch: grown to `|query| + 1` cells on demand, and only the cells
/// the band reads are (re)initialised, so it carries nothing over between
/// calls.
fn banded<T: Copy + PartialEq>(
    query: &[T],
    cand: &[T],
    d: usize,
    row: &mut Vec<usize>,
) -> Option<usize> {
    const INF: usize = usize::MAX / 2;
    let n = query.len();
    if row.len() <= n {
        row.resize(n + 1, INF);
    }
    // Row 0 of the band: columns 0..=d, and the cell right of it, which
    // row 1 reads as its `up`.
    for (j, slot) in row.iter_mut().enumerate().take(d.min(n) + 1) {
        *slot = j;
    }
    if d < n {
        row[d + 1] = INF;
    }
    for (i, &cc) in cand.iter().enumerate() {
        let i1 = i + 1;
        // Band for this row: columns j with |i1 - j| <= d.
        let lo = i1.saturating_sub(d);
        let hi = (i1 + d).min(n);
        let mut prev_diag = if lo == 0 { i } else { row[lo - 1] };
        let mut row_min = INF;
        // Cell left of the band start is outside the band: unreachable.
        let mut left = if lo == 0 { i1 } else { INF };
        if lo == 0 {
            row[0] = i1;
            row_min = i1;
        }
        for j in lo.max(1)..=hi {
            let cost = usize::from(cc != query[j - 1]);
            let up = row[j];
            let next = (prev_diag + cost).min(left + 1).min(up + 1);
            prev_diag = up;
            row[j] = next;
            left = next;
            row_min = row_min.min(next);
        }
        // Invalidate the cell just right of the band so the next row does not
        // read a stale value from two rows (or a previous call) ago.
        if hi < n {
            row[hi + 1] = INF;
        }
        if row_min > d {
            return None;
        }
    }
    let dist = row[n];
    (dist <= d).then_some(dist)
}

/// One-shot [`BoundedLevenshtein`]: `Some(dist)` if `dist(a, b) <= d`, else
/// `None`.
///
/// ```
/// use sqo_strsim::levenshtein_bounded;
/// assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
/// assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
/// assert_eq!(levenshtein_bounded("abc", "abc", 0), Some(0));
/// ```
pub fn levenshtein_bounded(a: &str, b: &str, d: usize) -> Option<usize> {
    BoundedLevenshtein::new(a, d).distance(b)
}

/// `true` iff `dist(a, b) <= d`. Convenience wrapper over
/// [`levenshtein_bounded`].
pub fn within_distance(a: &str, b: &str, d: usize) -> bool {
    levenshtein_bounded(a, b, d).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_pairs() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("gumbo", "gambol"), 2);
        assert_eq!(levenshtein("book", "back"), 2);
    }

    #[test]
    fn empty_and_identity() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
    }

    #[test]
    fn symmetric() {
        assert_eq!(levenshtein("paris", "alice"), levenshtein("alice", "paris"));
    }

    #[test]
    fn unicode_counts_scalars_not_bytes() {
        // 'é' is two UTF-8 bytes but one edit.
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn bounded_agrees_with_exact_within_bound() {
        let pairs = [
            ("kitten", "sitting"),
            ("abcdef", "abcdef"),
            ("", "xy"),
            ("similar", "dissimilar"),
            ("dlrid", "dealerid"),
        ];
        for (a, b) in pairs {
            let exact = levenshtein(a, b);
            for d in 0..=8 {
                let got = levenshtein_bounded(a, b, d);
                if exact <= d {
                    assert_eq!(got, Some(exact), "{a:?} vs {b:?} d={d}");
                } else {
                    assert_eq!(got, None, "{a:?} vs {b:?} d={d}");
                }
            }
        }
    }

    #[test]
    fn bounded_zero_distance() {
        assert_eq!(levenshtein_bounded("x", "x", 0), Some(0));
        assert_eq!(levenshtein_bounded("x", "y", 0), None);
        assert_eq!(levenshtein_bounded("", "", 0), Some(0));
    }

    #[test]
    fn length_gap_short_circuits() {
        assert_eq!(levenshtein_bounded("a", "abcdefgh", 3), None);
    }

    #[test]
    fn bounds_beyond_the_longer_string_are_clamped() {
        // Unclamped, `i + d` overflows for these bounds: a panic in debug, a
        // wrapped band and `Some(6)` in release. The distance is 3.
        for d in [usize::MAX, usize::MAX / 2, "sitting".len()] {
            assert_eq!(levenshtein_bounded("kitten", "sitting", d), Some(3), "d={d}");
            assert_eq!(levenshtein_bounded("", "sitting", d), Some(7), "d={d}");
        }
        assert_eq!(levenshtein_bounded("kitten", "sitting", 0), None);
        assert_eq!(levenshtein_bounded("kitten", "kitten", 0), Some(0));
    }

    /// The byte path trusts `chars == len()` to mean ASCII; a debug build
    /// checks the count it is handed.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the char count")]
    fn a_wrong_char_count_is_caught_in_debug_builds() {
        BoundedLevenshtein::new("café", 1).distance_of("cafë", 5);
    }

    #[test]
    fn within_distance_boundary() {
        assert!(within_distance("bmw", "bmv", 1));
        assert!(!within_distance("bmw", "audi", 2));
        assert!(within_distance("bmw", "audi", 4));
    }
}
