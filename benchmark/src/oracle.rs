//! The brute-force reference every answer is checked against: plain
//! `levenshtein` over the dataset. It is sound for every strategy and
//! exact for `Naive` and wherever `|s| >= q·(d+1)` (below that, `d` edits
//! can destroy every shared q-gram and the gram strategies may legally miss
//! a match — `crates/core/src/similar.rs` documents the blind spot).

use crate::surface::{levenshtein, PlanRow};

/// A result row reduced to what the oracle can judge: which stored string
/// and at what reported distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Hit {
    pub idx: usize,
    pub dist: usize,
}

/// Index of a row from its oid (`string_rows` names rows `<prefix>:<i>`).
pub fn idx_of(oid: &str) -> Option<usize> {
    oid.rsplit_once(':')?.1.parse().ok()
}

/// The rows of a similarity answer as hits: which stored string each row
/// is, and the distance it reports.
pub fn hits(rows: &[PlanRow]) -> Result<Vec<Hit>, String> {
    rows.iter()
        .map(|r| {
            let idx = idx_of(&r.oid).ok_or_else(|| format!("unexpected oid {:?}", r.oid))?;
            let dist = r.score.ok_or("similarity row without a score")? as usize;
            Ok(Hit { idx, dist })
        })
        .collect()
}

pub struct Oracle<'a> {
    strings: &'a [String],
    lens: Vec<usize>,
}

impl<'a> Oracle<'a> {
    pub fn new(strings: &'a [String]) -> Self {
        Oracle { strings, lens: strings.iter().map(|s| s.chars().count()).collect() }
    }

    /// Every string among the first `upto` within distance `d` of `s`,
    /// ascending by index. The length test is a sound shortcut only:
    /// `|len(a) - len(b)| > d` implies `lev(a, b) > d`.
    pub fn within(&self, s: &str, d: usize, upto: usize) -> Vec<Hit> {
        let len = s.chars().count();
        (0..upto.min(self.strings.len()))
            .filter(|&i| self.lens[i].abs_diff(len) <= d)
            .filter_map(|i| {
                let dist = levenshtein(s, &self.strings[i]);
                (dist <= d).then_some(Hit { idx: i, dist })
            })
            .collect()
    }

    /// Check a similarity selection's answer. `exact` demands equality
    /// with the oracle; otherwise the answer must be a subset of it with
    /// true distances (soundness).
    pub fn check_similar(
        &self,
        s: &str,
        d: usize,
        upto: usize,
        exact: bool,
        got: &[Hit],
    ) -> Result<(), String> {
        let want = self.within(s, d, upto);
        let mut got = got.to_vec();
        got.sort_unstable();
        got.dedup();
        if exact {
            if got != want {
                return Err(format!(
                    "similar({s:?}, d={d}): got {} hits, oracle has {}",
                    got.len(),
                    want.len()
                ));
            }
        } else if let Some(bad) = got.iter().find(|h| !want.contains(h)) {
            return Err(format!("similar({s:?}, d={d}): unsound hit {bad:?}"));
        }
        Ok(())
    }

    /// Check a string top-N answer: reported distances are true, and — in
    /// the exact regime — they are the `n` smallest within `d_max` (ties
    /// may resolve to different strings, so distances are compared, not
    /// identities).
    pub fn check_top_n(
        &self,
        s: &str,
        n: usize,
        d_max: usize,
        q: usize,
        got: &[Hit],
    ) -> Result<(), String> {
        let want = self.within(s, d_max, self.strings.len());
        if let Some(bad) = got.iter().find(|h| !want.contains(h)) {
            return Err(format!("top_n({s:?}): unsound hit {bad:?}"));
        }
        // The operator widens shells d = 1, 3, … up to d_max. Shell 1 is
        // exact for |s| >= 2q and enough when it already holds n strings;
        // the last shell is exact for |s| >= q·(d_max+1).
        let len = s.chars().count();
        let near = want.iter().filter(|h| h.dist <= 1).count();
        let exact = len >= q * (d_max + 1) || (len >= 2 * q && near >= n);
        if exact {
            let mut best: Vec<usize> = want.iter().map(|h| h.dist).collect();
            best.sort_unstable();
            best.truncate(n);
            let mut dists: Vec<usize> = got.iter().map(|h| h.dist).collect();
            dists.sort_unstable();
            if dists != best {
                return Err(format!("top_n({s:?}): distances {dists:?}, oracle {best:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<String> {
        ["house", "mouse", "horse", "houses", "car"].map(String::from).to_vec()
    }

    #[test]
    fn within_and_similar() {
        let data = data();
        let o = Oracle::new(&data);
        let hits = o.within("house", 1, data.len());
        assert_eq!(hits.iter().map(|h| h.idx).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(o.check_similar("house", 1, 5, true, &hits).is_ok());
        assert!(o.check_similar("house", 1, 5, true, &hits[..3]).is_err(), "missed a match");
        assert!(o.check_similar("house", 1, 5, false, &hits[..3]).is_ok(), "subset is sound");
        let wrong = [Hit { idx: 4, dist: 1 }];
        assert!(o.check_similar("house", 1, 5, false, &wrong).is_err(), "unsound hit");
        assert_eq!(o.within("house", 1, 1).len(), 1, "`upto` bounds the stored prefix");
    }

    #[test]
    fn top_n_compares_distances() {
        let data = data();
        let o = Oracle::new(&data);
        let best = [Hit { idx: 0, dist: 0 }, Hit { idx: 2, dist: 1 }];
        assert!(o.check_top_n("house", 2, 1, 2, &best).is_ok(), "any tie among d=1 is fine");
        let worse = [Hit { idx: 1, dist: 1 }, Hit { idx: 2, dist: 1 }];
        assert!(o.check_top_n("house", 2, 1, 2, &worse).is_err(), "missed the exact match");
        assert_eq!(idx_of("w:17"), Some(17));
        assert_eq!(idx_of("nonsense"), None);
    }
}
