//! `LogHistogram` — a streaming, log-bucketed (HDR-style) histogram.
//!
//! Replaces the driver's sorted-`Vec` percentile computation: memory is
//! bounded by the number of *occupied* buckets (a few hundred for any
//! latency distribution) instead of the number of samples, which is what
//! makes 10⁵–10⁶-peer workload sweeps feasible.
//!
//! ## Bucketing
//!
//! With `sub_bits = k`, values below `2^k` get their own exact bucket;
//! larger values share `2^k` sub-buckets per octave, so the relative width
//! of any bucket is at most `2^-k`. The default `k = 11` bounds quantile
//! quantization error at ≤ 0.049% — far inside the tolerances of every
//! latency pin in the repo, and still only a `BTreeMap` of occupied
//! buckets.
//!
//! ## Quantiles
//!
//! [`LogHistogram::quantile`] is **nearest-rank** over the recorded
//! multiset, like [`percentile_us`] in `sqo-sim::report`, with two
//! exactness guarantees the old sorted-vec path lacked only in spirit but
//! small samples need in practice: rank 1 returns the exact minimum and
//! rank `count` the exact maximum (both tracked outside the buckets), so
//! for n ≤ 2 every quantile is exact and extreme quantiles of tiny samples
//! are never biased toward a bucket midpoint. Interior ranks return the
//! bucket's representative value, clamped to `[min, max]`.
//!
//! [`percentile_us`]: https://docs.rs/sqo-sim

use std::collections::BTreeMap;

/// Sub-bucket resolution: values `< 2^SUB_BITS` are exact; beyond that the
/// relative bucket width is `2^-SUB_BITS` ≈ 0.049%.
const SUB_BITS: u32 = 11;

/// A streaming log-bucketed histogram of `u64` samples (microseconds, by
/// convention, but unit-agnostic).
///
/// ```
/// use sqo_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [120_u64, 450, 450, 900, 120_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.quantile(50.0), 450); // exact: 450 < 2^11
/// assert_eq!(h.quantile(100.0), 120_000); // max is always exact
/// let mut other = LogHistogram::new();
/// other.record(7);
/// h.merge(&other);
/// assert_eq!(h.min(), 7);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Occupied buckets only: index → sample count.
    buckets: BTreeMap<u32, u64>,
}

crate::json_record! { LogHistogram { count, sum, min, max, buckets }; }

impl LogHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` samples of the same value. `count` and `sum` saturate at
    /// `u64::MAX` instead of wrapping, so a pegged histogram degrades to a
    /// stuck-at-max mean rather than a silently tiny one.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        let b = self.buckets.entry(bucket_index(value)).or_insert(0);
        *b = b.saturating_add(n);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (&idx, &n) in &other.buckets {
            let b = self.buckets.entry(idx).or_insert(0);
            *b = b.saturating_add(n);
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean (`sum / count`, matching the driver's summary), 0 when
    /// empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank quantile, `p` in `(0, 100]`. Empty histograms yield 0.
    ///
    /// Rank 1 and rank `count` are exact (`min`/`max`); interior ranks are
    /// off by at most one bucket width (relative `2^-11`) from the exact
    /// order statistic.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_rep(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Number of occupied buckets (the memory footprint, up to the fixed
    /// struct overhead).
    pub fn occupied_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The raw state `(count, sum, min, max, sorted (bucket, n) pairs)` —
    /// the checkpoint image; rebuild with [`Self::from_parts`].
    pub fn export_parts(&self) -> (u64, u64, u64, u64, Vec<(u32, u64)>) {
        (
            self.count,
            self.sum,
            self.min,
            self.max,
            self.buckets.iter().map(|(&i, &n)| (i, n)).collect(),
        )
    }

    /// Rebuild a histogram from [`Self::export_parts`] output. The bucket
    /// list need not be sorted (it re-enters a `BTreeMap`); consistency of
    /// the aggregates with the buckets is the caller's responsibility.
    pub fn from_parts(count: u64, sum: u64, min: u64, max: u64, buckets: Vec<(u32, u64)>) -> Self {
        Self { count, sum, min, max, buckets: buckets.into_iter().collect() }
    }

    /// Largest relative half-width of any bucket that interior quantiles
    /// can be off by: `2^-SUB_BITS`.
    pub fn relative_error_bound() -> f64 {
        1.0 / (1u64 << SUB_BITS) as f64
    }
}

/// Bucket index of a value: identity below `2^SUB_BITS`, then `2^SUB_BITS`
/// sub-buckets per octave.
fn bucket_index(value: u64) -> u32 {
    if value < (1u64 << SUB_BITS) {
        return value as u32;
    }
    let exp = 63 - value.leading_zeros(); // >= SUB_BITS
    let sub = (value >> (exp - SUB_BITS)) as u32; // in [2^SUB_BITS, 2^(SUB_BITS+1))
    (exp - SUB_BITS) * (1 << SUB_BITS) + sub
}

/// Inclusive lower bound of a bucket.
fn bucket_low(idx: u32) -> u64 {
    if idx < (1 << (SUB_BITS + 1)) {
        // Octave 0 covers indices [0, 2^(k+1)): exact below 2^k, width-1
        // sub-buckets up to 2^(k+1).
        return idx as u64;
    }
    let oct = (idx >> SUB_BITS) as u64 - 1; // >= 1
    let sub = (idx & ((1 << SUB_BITS) - 1)) as u64;
    ((1u64 << SUB_BITS) + sub) << oct
}

/// Representative value of a bucket: its midpoint (low for width-1
/// buckets) — the value interior quantiles report.
fn bucket_rep(idx: u32) -> u64 {
    let low = bucket_low(idx);
    if idx < (1 << (SUB_BITS + 1)) {
        return low;
    }
    let oct = (idx >> SUB_BITS) - 1;
    let width = 1u64 << oct;
    low + (width - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference nearest-rank percentile (the driver's old sorted-vec
    /// computation).
    fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn bucketing_is_exact_below_the_sub_bucket_range() {
        for v in 0..(1u64 << SUB_BITS) {
            assert_eq!(bucket_low(bucket_index(v)), v);
            assert_eq!(bucket_rep(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for shift in 0..50u64 {
            for off in [0u64, 1, 3, 7, 1023] {
                let v = (1u64 << shift).wrapping_add(off);
                let idx = bucket_index(v);
                let low = bucket_low(idx);
                let next_low = bucket_low(idx + 1);
                assert!(low <= v && v < next_low, "v={v} idx={idx} low={low} next={next_low}");
            }
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for v in [5_000u64, 123_456, 9_999_999, u64::MAX / 4] {
            let idx = bucket_index(v);
            let width = bucket_low(idx + 1) - bucket_low(idx);
            assert!(
                (width as f64) / (bucket_low(idx) as f64) <= LogHistogram::relative_error_bound(),
                "v={v} width={width}"
            );
        }
    }

    #[test]
    fn small_samples_match_exact_nearest_rank() {
        // The small-sample bias pin (n = 1..=5): quantiles of tiny samples
        // equal the exact nearest-rank order statistic — extreme ranks are
        // exact by construction, interior ranks exact here because these
        // values sit in the exact bucket range.
        let samples: &[&[u64]] =
            &[&[7], &[3, 9], &[1, 500, 2000], &[10, 20, 30, 40], &[5, 5, 90, 1500, 2047]];
        for xs in samples {
            let mut sorted = xs.to_vec();
            sorted.sort_unstable();
            let mut h = LogHistogram::new();
            for &v in *xs {
                h.record(v);
            }
            for p in [1.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
                assert_eq!(h.quantile(p), exact_percentile(&sorted, p), "n={} p={p}", xs.len());
            }
        }
    }

    #[test]
    fn quantile_error_is_within_one_bucket_width() {
        // Large values leave the exact range; the error must stay within
        // the bucket containing the exact order statistic.
        let xs: Vec<u64> = (0..500).map(|i| 10_000 + i * 997).collect();
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let mut h = LogHistogram::new();
        for &v in &xs {
            h.record(v);
        }
        for p in [10.0, 50.0, 90.0, 95.0, 99.0] {
            let exact = exact_percentile(&sorted, p);
            let idx = bucket_index(exact);
            let width = bucket_low(idx + 1) - bucket_low(idx);
            let got = h.quantile(p);
            assert!(got.abs_diff(exact) <= width, "p={p} exact={exact} got={got} width={width}");
        }
        assert_eq!(h.quantile(100.0), *sorted.last().unwrap());
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let (a_vals, b_vals) = ((0..100u64).map(|i| i * 37), (0..80u64).map(|i| 1_000_000 + i));
        let mut a = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in a_vals {
            a.record(v);
            whole.record(v);
        }
        let mut b = LogHistogram::new();
        for v in b_vals {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_empty_into_nonempty_and_back_is_identity() {
        let mut h = LogHistogram::new();
        for v in [3u64, 90, 4_000] {
            h.record(v);
        }
        let before = h.clone();
        h.merge(&LogHistogram::new());
        assert_eq!(h, before, "merging an empty histogram must change nothing");
        let mut empty = LogHistogram::new();
        empty.merge(&before);
        assert_eq!(empty, before, "merging into an empty histogram copies the other");
    }

    #[test]
    fn merge_disjoint_bucket_ranges_keeps_both_tails() {
        // One histogram entirely in the exact range, one entirely in the
        // log range, no shared buckets.
        let mut lo = LogHistogram::new();
        for v in 1..=100u64 {
            lo.record(v);
        }
        let mut hi = LogHistogram::new();
        for v in (0..100u64).map(|i| 50_000_000 + i * 1_000) {
            hi.record(v);
        }
        let occupied = lo.occupied_buckets() + hi.occupied_buckets();
        lo.merge(&hi);
        assert_eq!(lo.occupied_buckets(), occupied, "disjoint ranges: no bucket collisions");
        assert_eq!(lo.count(), 200);
        assert_eq!(lo.min(), 1);
        assert_eq!(lo.quantile(100.0), 50_099_000);
        assert!(lo.quantile(25.0) <= 100, "low tail survives the merge");
        assert!(lo.quantile(75.0) >= 50_000_000, "high tail survives the merge");
    }

    #[test]
    fn counts_and_sums_saturate_instead_of_wrapping() {
        let mut h = LogHistogram::new();
        h.record_n(u64::MAX, 3);
        assert_eq!(h.sum(), u64::MAX, "sum saturates on value*n overflow");
        assert_eq!(h.count(), 3);
        h.record_n(1, u64::MAX);
        assert_eq!(h.count(), u64::MAX, "count saturates");
        let mut other = LogHistogram::new();
        other.record_n(2, u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), u64::MAX, "merge saturates counts");
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), u64::MAX, "extremes stay exact");
        assert_eq!(h.quantile(100.0), u64::MAX);
    }

    #[test]
    fn mean_is_integer_sum_over_count() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 4] {
            h.record(v);
        }
        assert_eq!(h.mean(), 7 / 3);
    }
}
