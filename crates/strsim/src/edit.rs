//! Levenshtein edit distance.
//!
//! * [`levenshtein`] — the exact distance, two-row dynamic program,
//!   `O(|a|·|b|)` time and `O(min(|a|,|b|))` space. The reference the
//!   property tests compare against.
//! * [`BoundedLevenshtein`] — the verifier of the final step of the
//!   `Similar` operator (Algorithm 2, line 23 of the paper) and of the naive
//!   baseline's "compare the queried string to the data available locally".
//!   Both compare **one** query against many stored strings with a small
//!   bound (the paper's workload uses `d ≤ 5`), so what depends only on
//!   `(query, d)` is prepared once — the query's char length and match
//!   table — and a comparison allocates nothing per candidate.
//! * [`levenshtein_bounded`] / [`within_distance`] — one-shot wrappers over
//!   a throw-away verifier, for callers with a single pair.
//!
//! **What a comparison costs.** [`BoundedLevenshtein::distance_of`] takes
//! the candidate with its length in chars, which the store keeps beside
//! every value: the length gate (`|len(s) − len(c)| > d` ⇒ no match, what
//! [`BoundedLevenshtein::admits_len`] answers from the count alone) reads
//! no text. A survivor is read once, one char per column of Myers'
//! bit-vector algorithm (J. ACM 46(3), 1999) in Hyyrö's edit-distance form
//! (2003): a column of the DP matrix is two `u64`s of +1 and −1 steps, and
//! a char moves it by a dozen word operations.
//!
//! **The match table** (bit `i` of a char's mask: the query's char `i` is
//! that char) is built by the first comparison: a 128-entry array for ASCII
//! chars and a short `(char, mask)` list for the others. The candidate is
//! streamed as masks — its bytes when `chars == len()`, else its chars —
//! and never decoded into a buffer.
//!
//! **The diagonal exit.** The cell on the *end diagonal*, the one through
//! `D[m][n]`, is kept from one bit of each column. A diagonal never
//! decreases, so the kernel gives up once that cell exceeds `d` — never
//! later than a band of width `2d + 1` would, since the cell lies in it.
//!
//! **The fallback.** A query of more than 64 chars (or none) fills that
//! band of the scalar DP, on bytes for two ASCII strings and on decoded
//! chars otherwise, and gives up once a whole row exceeds `d`.
//!
//! Distances count Unicode scalar values, not bytes: a multi-byte character
//! is a single edit.

use crate::filters::char_len;
use std::borrow::Cow;
use std::ops::RangeInclusive;

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
    /// Length of the query in chars.
    len: usize,
    /// A query of 1 to 64 chars: its match table, built on first use.
    table: Option<Box<MatchTable>>,
    /// A longer query's chars, then the candidate's, when either is not
    /// ASCII; and the banded DP's row. Both sized by first use.
    scratch: Vec<char>,
    row: Vec<usize>,
}

/// Bit `i` of a char's mask is set iff the query's char `i` is that char.
#[derive(Debug, Clone)]
struct MatchTable {
    ascii: [u64; 128],
    /// One entry per position of a non-ASCII char.
    wide: Vec<(char, u64)>,
}

impl MatchTable {
    fn new(query: &str) -> Box<Self> {
        let mut table = Box::new(Self { ascii: [0; 128], wide: Vec::new() });
        for (i, c) in query.chars().enumerate() {
            match c.is_ascii() {
                true => table.ascii[c as usize] |= 1 << i,
                false => table.wide.push((c, 1 << i)),
            }
        }
        table
    }

    fn mask(&self, c: char) -> u64 {
        match c.is_ascii() {
            true => self.ascii[c as usize & 0x7f],
            false => self.wide.iter().filter(|e| e.0 == c).fold(0, |mask, e| mask | e.1),
        }
    }
}

impl<'q> BoundedLevenshtein<'q> {
    /// Prepare the verifier for `query` and bound `d`. Borrowing the query
    /// allocates nothing here; a long-lived verifier takes a `String`.
    pub fn new(query: impl Into<Cow<'q, str>>, d: usize) -> Self {
        let query = query.into();
        let len = char_len(&query);
        Self { query, d, len, table: None, scratch: Vec::new(), row: Vec::new() }
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

    /// The char counts [`Self::admits_len`] admits, as one range:
    /// `len(query) ∓ d`, clamped to `usize`. A scan over candidates ordered
    /// by their count bisects to it instead of gating each one.
    #[inline]
    pub fn len_window(&self) -> RangeInclusive<usize> {
        self.len.saturating_sub(self.d)..=self.len.saturating_add(self.d)
    }

    /// [`Self::distance`] for a candidate whose length in chars is already
    /// known — stored beside it, as a posting and a triple record keep it.
    /// The length gate reads `chars` alone; `chars == candidate.len()`
    /// means the candidate is ASCII, so it is streamed as bytes with no
    /// `is_ascii` pass; and its text is read only after the gate.
    ///
    /// Costs `O(|candidate|)` word operations for a query of up to 64
    /// chars, `O(d · |candidate|)` cell updates for a longer one.
    pub fn distance_of(&mut self, candidate: &str, chars: usize) -> Option<usize> {
        debug_assert_eq!(chars, char_len(candidate), "the char count of {candidate:?}");
        // The distance is at least the length difference…
        if !self.admits_len(chars) {
            return None;
        }
        // …and at most the longer length, so a larger bound buys nothing;
        // clamping it keeps `i + d` below from overflowing.
        let (m, d) = (self.len, self.d.min(self.len.max(chars)));
        if d == 0 {
            return (*self.query == *candidate).then_some(0);
        }
        if (1..=64).contains(&m) {
            let table = self.table.get_or_insert_with(|| MatchTable::new(&self.query));
            if chars == candidate.len() {
                let masks = candidate.bytes().map(|b| table.ascii[usize::from(b & 0x7f)]);
                return myers(masks, m, chars, d);
            }
            return myers(candidate.chars().map(|c| table.mask(c)), m, chars, d);
        }
        if m == self.query.len() && chars == candidate.len() {
            return banded(self.query.as_bytes(), candidate.as_bytes(), d, &mut self.row);
        }
        if self.scratch.len() < m {
            self.scratch.extend(self.query.chars());
        }
        self.scratch.truncate(m);
        self.scratch.extend(candidate.chars());
        let (query, cand) = self.scratch.split_at(m);
        banded(query, cand, d, &mut self.row)
    }
}

/// Myers' bit-vector edit distance in Hyyrö's global form: a query of `m`
/// chars, `1 <= m <= 64`, down the rows, and a candidate of `n` chars,
/// given as their match masks, along the columns; `|m − n| <= d`. `vp` /
/// `vn` hold the +1 / −1 steps `D[i+1][j] − D[i][j]` of the current column
/// at bit `i`; no bit at or above `m` is read.
fn myers(mut masks: impl Iterator<Item = u64>, m: usize, n: usize, d: usize) -> Option<usize> {
    // Column 0 is `D[i][0] = i`: every step +1.
    let (mut vp, mut vn) = (!0u64, 0u64);
    let mut column = |eq: u64| {
        let xv = eq | vn;
        let xh = ((eq & vp).wrapping_add(vp) ^ vp) | eq;
        // The horizontal steps, shifted to row `i` at bit `i`; row 0 is
        // `D[0][j] = j`, a +1 step in every column.
        let hp = ((vn | !(xh | vp)) << 1) | 1;
        let hn = (vp & xh) << 1;
        vp = hn | !(xv | hp);
        vn = hp & xv;
        xv | hn
    };
    // The end diagonal enters at row 0 of column `n − m` or at row `m − n`
    // of column 0; the columns before it only move the vectors.
    for eq in masks.by_ref().take(n.saturating_sub(m)) {
        column(eq);
    }
    let mut cell = m.abs_diff(n);
    // A diagonal step `D[k + 1][j] − D[k][j − 1]` is 0 or 1, and 0 exactly
    // when bit `k` of `xv | hn` is set: the chars match, or the step down
    // column `j − 1` or along row `k` was −1. At column `n`, `k = m − 1`.
    for (k, eq) in (m.saturating_sub(n)..).zip(masks) {
        cell += (!column(eq) >> k) as usize & 1;
        if cell > d {
            return None;
        }
    }
    (cell <= d).then_some(cell)
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

    /// `distance` and `distance_of` of a fresh verifier, each against the
    /// reference clipped at `d`.
    fn check(query: &str, candidate: &str, d: usize) {
        let exact = levenshtein(query, candidate);
        let want = (exact <= d).then_some(exact);
        let mut v = BoundedLevenshtein::new(query, d);
        assert_eq!(v.distance(candidate), want, "{query:?} vs {candidate:?} d={d}");
        let chars = candidate.chars().count();
        assert_eq!(v.distance_of(candidate, chars), want, "{query:?} vs {candidate:?} d={d}");
    }

    #[test]
    fn a_query_of_64_chars_fills_the_word() {
        // The query's last char sits at bit 63, the score's bit; a char
        // held 64 times has the all-ones mask.
        let abc: String = (b'a'..=b'z').cycle().take(64).map(char::from).collect();
        let a64 = "a".repeat(64);
        for q in [&abc, &a64] {
            let head = &q[..63];
            let candidates = [
                q.clone(),
                format!("{head}Z"),
                head.to_string(),
                format!("{q}Z"),
                format!("Z{}", &q[1..]),
                q[1..].to_string(),
                format!("{}ZZ", &q[..62]),
                "Z".repeat(64),
            ];
            for c in &candidates {
                for d in 0..=3 {
                    check(q, c, d);
                }
            }
        }
        // One char more falls back to the banded DP.
        check(&format!("{abc}Z"), &abc, 1);
        check(&format!("{abc}Z"), &format!("{abc}Y"), 1);
    }

    #[test]
    fn a_query_of_one_char() {
        for c in ["", "a", "b", "ab", "ba", "bb", "bab", "xyz"] {
            for d in 0..=3 {
                check("a", c, d);
            }
        }
    }

    #[test]
    fn a_longer_candidate_enters_the_diagonal_at_column_n_minus_m() {
        for c in ["xxabcdef", "abcdefxx", "axbcdxef", "xxabcdeg", "xyzabcdef"] {
            for d in 0..=4 {
                check("abcdef", c, d);
            }
        }
    }

    #[test]
    fn a_shorter_candidate_starts_the_diagonal_at_row_m_minus_n() {
        for c in ["cdef", "abcd", "acef", "bdf", "xdef", ""] {
            for d in 0..=6 {
                check("abcdef", c, d);
            }
        }
    }

    #[test]
    fn identical_strings_are_at_distance_zero() {
        for s in ["a", "kitten", "café", "日本語", &"ab".repeat(40)] {
            for d in [0, 1, 5, usize::MAX] {
                check(s, s, d);
            }
        }
    }

    #[test]
    fn non_ascii_against_ascii_both_ways() {
        for (a, b) in [("café", "cafe"), ("日本語", "abc"), ("naïve", "naive"), ("𝄞ab", "ab")]
        {
            for d in 0..=4 {
                check(a, b, d);
                check(b, a, d);
            }
        }
    }

    #[test]
    fn within_distance_boundary() {
        assert!(within_distance("bmw", "bmv", 1));
        assert!(!within_distance("bmw", "audi", 2));
        assert!(within_distance("bmw", "audi", 4));
    }
}
