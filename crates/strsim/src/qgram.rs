//! Positional q-grams.
//!
//! A *q-gram* of a string `s` is a substring of fixed length `q`; a
//! *positional* q-gram additionally records its starting offset. Two strings
//! within edit distance `d` must share many q-grams (see
//! [`crate::filters::count_filter_threshold`]), and matching q-grams of a
//! low-distance pair cannot start at offsets differing by more than `d`
//! (position filter). This is the index unit of the paper's storage scheme
//! (§4): every triple value is posted once per q-gram under
//! `key(A # q_gram)`.
//!
//! Offsets are expressed in Unicode scalar values (characters), consistent
//! with [`crate::edit`].

use std::ops::Range;

/// A q-gram together with the character offset at which it starts.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PositionalQGram {
    /// The substring of length `q` (or shorter only for [`padded_qgrams`]'
    /// virtual padding-free variant — never for [`qgrams`]).
    pub gram: String,
    /// Character offset of the gram's first character within the string.
    pub pos: u32,
}

impl PositionalQGram {
    pub fn new(gram: impl Into<String>, pos: u32) -> Self {
        Self { gram: gram.into(), pos }
    }
}

/// All overlapping positional q-grams of `s`.
///
/// A string of `n >= q` characters yields exactly `n - q + 1` grams; strings
/// shorter than `q` yield none (the operators index those in a dedicated
/// short-string family, see `sqo-storage`).
///
/// ```
/// use sqo_strsim::qgrams;
/// let g = qgrams("abcd", 2);
/// let texts: Vec<_> = g.iter().map(|g| (g.gram.as_str(), g.pos)).collect();
/// assert_eq!(texts, vec![("ab", 0), ("bc", 1), ("cd", 2)]);
/// assert!(qgrams("a", 2).is_empty());
/// ```
pub fn qgrams(s: &str, q: usize) -> Vec<PositionalQGram> {
    qgram_slices(s, q).map(|(gram, pos)| PositionalQGram::new(gram, pos)).collect()
}

/// [`qgrams`] without the copies: each gram as a slice of `s` with its
/// character offset, for callers that store grams in a form of their own.
pub fn qgram_slices(s: &str, q: usize) -> impl Iterator<Item = (&str, u32)> {
    qgram_spans(s, q).map(move |(bytes, pos)| (&s[bytes], pos))
}

/// The byte range of each q-gram of `s` with its character offset, for
/// callers that keep `s` in a buffer of their own and store grams as
/// stretches of it.
pub fn qgram_spans(s: &str, q: usize) -> impl Iterator<Item = (Range<usize>, u32)> + '_ {
    assert!(q >= 1, "q must be at least 1");
    // Two walks of the character boundaries, the second `q` ahead and
    // counting the end of `s` as one.
    let starts = s.char_indices().map(|(i, _)| i);
    let ends = s.char_indices().map(|(i, _)| i).chain([s.len()]).skip(q);
    starts.zip(ends).zip(0..).map(|((start, end), pos)| (start..end, pos))
}

/// Padded positional q-grams: the string is conceptually extended with
/// `q - 1` leading `'#'` and trailing `'$'` characters, so even strings
/// shorter than `q` produce grams and edits near the string boundaries are
/// reflected in boundary grams.
///
/// This variant is provided for the ablation benches comparing padded vs.
/// unpadded indexing; the default pipeline uses [`qgrams`] (the paper's
/// formulation) plus a short-string side index.
///
/// ```
/// use sqo_strsim::padded_qgrams;
/// let g = padded_qgrams("ab", 3);
/// let texts: Vec<_> = g.iter().map(|g| g.gram.as_str()).collect();
/// assert_eq!(texts, vec!["##a", "#ab", "ab$", "b$$"]);
/// ```
pub fn padded_qgrams(s: &str, q: usize) -> Vec<PositionalQGram> {
    assert!(q >= 1, "q must be at least 1");
    let mut padded: Vec<char> = Vec::with_capacity(s.chars().count() + 2 * (q - 1));
    padded.extend(std::iter::repeat_n('#', q - 1));
    padded.extend(s.chars());
    padded.extend(std::iter::repeat_n('$', q - 1));
    if padded.len() < q {
        // Only possible for the empty string with q == 1.
        return Vec::new();
    }
    let mut out = Vec::with_capacity(padded.len() - q + 1);
    for i in 0..=padded.len() - q {
        out.push(PositionalQGram { gram: padded[i..i + q].iter().collect(), pos: i as u32 });
    }
    out
}

/// Number of overlapping (unpadded) q-grams of a string with `len` characters.
#[inline]
pub fn qgram_count(len: usize, q: usize) -> usize {
    (len + 1).saturating_sub(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_gram_set() {
        let g = qgrams("similar", 3);
        let texts: Vec<_> = g.iter().map(|g| g.gram.as_str()).collect();
        assert_eq!(texts, vec!["sim", "imi", "mil", "ila", "lar"]);
        assert_eq!(g[0].pos, 0);
        assert_eq!(g[4].pos, 4);
    }

    #[test]
    fn string_equal_to_q() {
        let g = qgrams("abc", 3);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0], PositionalQGram::new("abc", 0));
    }

    #[test]
    fn too_short_yields_none() {
        assert!(qgrams("ab", 3).is_empty());
        assert!(qgrams("", 1).is_empty());
    }

    #[test]
    fn count_formula_matches() {
        for len in 0..20 {
            let s: String = std::iter::repeat_n('x', len).collect();
            for q in 1..5 {
                assert_eq!(qgrams(&s, q).len(), qgram_count(len, q), "len={len} q={q}");
            }
        }
    }

    #[test]
    fn padded_covers_short_strings() {
        assert_eq!(padded_qgrams("a", 3).len(), 3); // ##a, #a$, a$$
        assert_eq!(padded_qgrams("", 3).len(), 2); // ##$, #$$
    }

    #[test]
    fn padded_count() {
        // n + q - 1 grams for padded strings of n >= 1.
        for len in 1..10 {
            let s: String = std::iter::repeat_n('y', len).collect();
            for q in 1..5 {
                assert_eq!(padded_qgrams(&s, q).len(), len + q - 1, "len={len} q={q}");
            }
        }
    }

    #[test]
    fn unicode_positions_are_char_offsets() {
        let g = qgrams("日本語x", 2);
        assert_eq!(g.len(), 3);
        assert_eq!(g[0].gram, "日本");
        assert_eq!(g[2].gram, "語x");
        assert_eq!(g[2].pos, 2);
    }

    #[test]
    #[should_panic(expected = "q must be at least 1")]
    fn q_zero_panics() {
        qgrams("abc", 0);
    }
}
