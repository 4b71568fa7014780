//! Property-based tests for the approximate-string-matching substrate.
//!
//! These pin down the *soundness* invariants the distributed operators rely
//! on: if a filter or sampling scheme violated them, the DHT operators would
//! silently drop true matches — the worst failure mode for a similarity
//! index.

use proptest::prelude::*;
use sqo_strsim::edit::{levenshtein, levenshtein_bounded, BoundedLevenshtein};
use sqo_strsim::filters::{count_filter_threshold, length_filter, position_filter};
use sqo_strsim::qgram::{padded_qgrams, qgram_count, qgrams};
use sqo_strsim::qsample::{is_complete_sample, qsamples};
use std::collections::HashMap;

fn word() -> impl Strategy<Value = String> {
    "[a-f]{0,16}"
}

/// A small deterministic generator for the edit scripts of one case.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }

    fn string(&mut self, alphabet: &[char], len: usize) -> String {
        (0..len).map(|_| alphabet[self.below(alphabet.len())]).collect()
    }
}

/// ASCII, non-ASCII (two- and three-byte chars and one above U+FFFF) and
/// mixed.
const ALPHABETS: [&[char]; 3] = [&['a', 'b', 'c'], &['é', '日', '𝄞'], &['a', 'b', 'é', '日', '𝄞']];

fn shared_qgram_count(a: &str, b: &str, q: usize) -> usize {
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

proptest! {
    /// Edit distance is a metric: symmetry, identity, triangle inequality.
    #[test]
    fn edit_distance_is_a_metric(a in word(), b in word(), c in word()) {
        let ab = levenshtein(&a, &b);
        let ba = levenshtein(&b, &a);
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(levenshtein(&a, &a), 0);
        let ac = levenshtein(&a, &c);
        let cb = levenshtein(&c, &b);
        prop_assert!(ab <= ac + cb, "triangle violated: d({},{})={} > {}+{}", a, b, ab, ac, cb);
    }

    /// The bounded verifier agrees with the exact distance for every bound.
    #[test]
    fn bounded_matches_exact(a in word(), b in word(), d in 0usize..20) {
        let exact = levenshtein(&a, &b);
        match levenshtein_bounded(&a, &b, d) {
            Some(got) => {
                prop_assert!(exact <= d);
                prop_assert_eq!(got, exact);
            }
            None => prop_assert!(exact > d),
        }
    }

    /// One prepared verifier, reused over several candidates, answers each
    /// with the exact distance clipped at `d`: on bytes (ASCII × ASCII) and
    /// on decoded chars, for empty strings and strings past 64 chars, for
    /// `d = 0` and `d` beyond either length, and for near misses (the query
    /// itself, minus its first char, plus one char).
    #[test]
    fn verifier_matches_exact_clipped(
        query in prop_oneof!["[ab]{0,80}", "[abé日]{0,80}"],
        random in prop::collection::vec(prop_oneof!["[ab]{0,80}", "[abé日]{0,80}"], 1..6),
        d in prop_oneof![0usize..4, 0usize..100],
    ) {
        let mut candidates = random;
        candidates.push(query.clone());
        candidates.push(query.chars().skip(1).collect());
        candidates.push(format!("{query}é"));
        let mut verifier = BoundedLevenshtein::new(query.as_str(), d);
        for c in &candidates {
            let exact = levenshtein(&query, c);
            prop_assert_eq!(
                verifier.distance(c), (exact <= d).then_some(exact),
                "query={:?} candidate={:?} d={}", query, c, d
            );
        }
    }

    /// The verifier on a stored char count is the verifier on the bare
    /// string is the reference clipped at `d` — ASCII, non-ASCII, mixed
    /// and empty strings, `d` from 0 to 5 and unbounded — and the count
    /// gate admits exactly the length window, which `len_window` is.
    #[test]
    fn a_stored_char_count_changes_no_answer(
        query in prop_oneof!["[a-c]{0,12}", "[äb日]{0,12}", "[ab é]{0,12}", Just(String::new())],
        random in prop::collection::vec(
            prop_oneof!["[a-c]{0,14}", "[äb日]{0,14}", "[ab é]{0,14}", Just(String::new())],
            1..8,
        ),
        d in prop_oneof![0usize..6, Just(usize::MAX)],
    ) {
        let mut candidates = random;
        candidates.push(query.clone());
        candidates.push(format!("{query}日"));
        let mut verifier = BoundedLevenshtein::new(query.as_str(), d);
        let len = query.chars().count();
        for c in &candidates {
            let chars = c.chars().count();
            let exact = (levenshtein(&query, c) <= d).then(|| levenshtein(&query, c));
            prop_assert_eq!(verifier.distance_of(c, chars), exact, "query={:?} c={:?} d={}", query, c, d);
            prop_assert_eq!(verifier.distance(c), exact, "query={:?} c={:?} d={}", query, c, d);
        }
        for n in 0..len + 8 {
            prop_assert_eq!(verifier.admits_len(n), len.abs_diff(n) <= d, "len={} n={} d={}", len, n, d);
            prop_assert_eq!(verifier.len_window().contains(&n), verifier.admits_len(n), "len={} n={} d={}", len, n, d);
        }
        for n in [usize::MAX - 1, usize::MAX] {
            prop_assert_eq!(verifier.len_window().contains(&n), verifier.admits_len(n), "n={} d={}", n, d);
        }
    }

    /// Length difference lower-bounds the edit distance, so the length filter
    /// is sound.
    #[test]
    fn length_filter_sound(a in word(), b in word()) {
        let d = levenshtein(&a, &b);
        prop_assert!(length_filter(a.chars().count(), b.chars().count(), d));
    }

    /// Count filter soundness: strings within distance d share at least the
    /// threshold number of q-grams.
    #[test]
    fn count_filter_sound(a in word(), b in word(), q in 1usize..5) {
        let d = levenshtein(&a, &b);
        let bound = count_filter_threshold(a.chars().count(), b.chars().count(), q, d);
        let shared = shared_qgram_count(&a, &b, q) as i64;
        prop_assert!(shared >= bound,
            "a={:?} b={:?} q={} d={} shared={} bound={}", a, b, q, d, shared, bound);
    }

    /// Position filter soundness: some occurrence of a preserved sample gram
    /// lies within d positions. We verify the weaker but operationally used
    /// form: for every pair within distance d, at least one query q-gram
    /// occurs in the data string at an offset within d of its query offset —
    /// provided the query admits a complete (d+1)-sample.
    #[test]
    fn qsample_completeness(a in "[a-c]{6,24}", d in 1usize..4, seed in 0u64..1000) {
        let q = 2;
        prop_assume!(is_complete_sample(a.chars().count(), q, d));
        // Derive b from a by exactly <= d random edits.
        let mut b: Vec<char> = a.chars().collect();
        let mut s = seed;
        for _ in 0..d {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pos = (s >> 33) as usize % (b.len() + 1);
            match (s >> 13) % 3 {
                0 if pos < b.len() => { b[pos] = char::from(b'a' + ((s >> 3) % 3) as u8); }
                1 if pos < b.len() => { b.remove(pos); }
                _ => { b.insert(pos, char::from(b'a' + ((s >> 3) % 3) as u8)); }
            }
        }
        let b: String = b.into_iter().collect();
        let dist = levenshtein(&a, &b);
        prop_assume!(dist <= d); // edits may cancel; only the <= d case matters
        let sample = qsamples(&a, q, d);
        let b_grams = qgrams(&b, q);
        let hit = sample.iter().any(|sg| {
            b_grams.iter().any(|bg| bg.gram == sg.gram && position_filter(bg.pos, sg.pos, d))
        });
        prop_assert!(hit, "no sample gram of {:?} found in {:?} within shift {}", a, b, d);
    }

    /// Gram counts follow the closed-form formulas.
    #[test]
    fn gram_count_formulas(a in word(), q in 1usize..5) {
        let n = a.chars().count();
        prop_assert_eq!(qgrams(&a, q).len(), qgram_count(n, q));
        if n > 0 {
            prop_assert_eq!(padded_qgrams(&a, q).len(), n + q - 1);
        }
    }

    /// Every sample is a subset of the full positional q-gram set.
    #[test]
    fn samples_subset_of_grams(a in word(), q in 1usize..4, d in 0usize..4) {
        let all: std::collections::HashSet<_> =
            qgrams(&a, q).into_iter().map(|g| (g.gram, g.pos)).collect();
        for g in qsamples(&a, q, d) {
            prop_assert!(all.contains(&(g.gram.clone(), g.pos)));
        }
        prop_assert!(qsamples(&a, q, d).len() <= d + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The verifier at its edges is the reference clipped at `d`, through
    /// `distance` and `distance_of`: queries of 0, 1, 63, 64 and 65 chars
    /// and of random lengths up to 130, so the 64-char fallback edge is
    /// crossed both ways; ASCII, non-ASCII and mixed alphabets, a candidate
    /// drawn from any of them; `d` from 0 to 5 and unbounded. Candidates
    /// are the query after 0 to `d + 2` random edits — near misses, which
    /// reach the diagonal exit — random strings, and random strings longer
    /// or shorter than the query by up to `d + 1` chars.
    #[test]
    fn the_kernel_is_the_reference_at_its_edges(
        len in prop_oneof![Just(0usize), Just(1usize), Just(63usize), Just(64usize), Just(65usize), 0usize..131],
        alphabet in 0usize..3,
        d in prop_oneof![0usize..6, Just(usize::MAX)],
        seed in any::<u64>(),
    ) {
        let mut rng = Lcg(seed);
        let query = rng.string(ALPHABETS[alphabet], len);
        let reach = d.min(5);
        let mut candidates = Vec::new();
        for edits in 0..=reach + 2 {
            let mut c: Vec<char> = query.chars().collect();
            for _ in 0..edits {
                let pick = ALPHABETS[rng.below(3)];
                let ch = pick[rng.below(pick.len())];
                let at = rng.below(c.len() + 1);
                match rng.below(3) {
                    0 if at < c.len() => c[at] = ch,
                    1 if at < c.len() => {
                        c.remove(at);
                    }
                    _ => c.insert(at, ch),
                }
            }
            candidates.push(c.into_iter().collect::<String>());
        }
        for _ in 0..2 {
            let pick = ALPHABETS[rng.below(3)];
            let shift = 1 + rng.below(reach + 1);
            let random_len = rng.below(131);
            candidates.push(rng.string(pick, random_len));
            candidates.push(rng.string(pick, len + shift));
            candidates.push(rng.string(pick, len.saturating_sub(shift)));
        }
        let mut verifier = BoundedLevenshtein::new(query.as_str(), d);
        for c in &candidates {
            let exact = levenshtein(&query, c);
            let want = (exact <= d).then_some(exact);
            prop_assert_eq!(verifier.distance(c), want, "query={:?} c={:?} d={}", query, c, d);
            let chars = c.chars().count();
            prop_assert_eq!(verifier.distance_of(c, chars), want, "query={:?} c={:?} d={}", query, c, d);
        }
    }
}
