//! Latency summaries: percentiles, per-operator breakdowns, JSON-ready.

use sqo_obs::LogHistogram;

/// Nearest-rank percentile of a **sorted** slice of microsecond latencies.
/// `p` in `(0, 100]`; an empty slice yields 0.
pub fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Distribution summary of a set of query latencies.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub count: usize,
    pub mean_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarize (sorts a copy; input order is irrelevant).
    pub fn of(latencies_us: &[u64]) -> Self {
        if latencies_us.is_empty() {
            return Self::default();
        }
        let mut xs = latencies_us.to_vec();
        xs.sort_unstable();
        Self {
            count: xs.len(),
            mean_us: xs.iter().sum::<u64>() / xs.len() as u64,
            p50_us: percentile_us(&xs, 50.0),
            p95_us: percentile_us(&xs, 95.0),
            p99_us: percentile_us(&xs, 99.0),
            max_us: *xs.last().unwrap(),
        }
    }

    /// Summarize a streaming [`LogHistogram`] — what the driver uses, so
    /// memory stays bounded by occupied buckets rather than sample count.
    ///
    /// The histogram's nearest-rank quantiles match [`Self::of`] exactly
    /// for small samples (rank 1 / rank `count` are the tracked min/max —
    /// the small-sample bias fix) and are within one bucket width
    /// (relative `2^-11`) elsewhere.
    pub fn of_histogram(h: &LogHistogram) -> Self {
        if h.is_empty() {
            return Self::default();
        }
        Self {
            count: h.count() as usize,
            mean_us: h.mean(),
            p50_us: h.quantile(50.0),
            p95_us: h.quantile(95.0),
            p99_us: h.quantile(99.0),
            max_us: h.max(),
        }
    }
}

/// One operator's latency profile within a driven workload, with its
/// overlay traffic next to the percentiles — optimizations that trade
/// messages for latency (caching, batching) are visible per operator in
/// the bench artifact, not only in the workload totals.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorLatency {
    pub operator: String,
    pub summary: LatencySummary,
    /// Overlay messages attributed to this operator's queries.
    pub messages: u64,
    /// Virtual time this operator's messages spent queued behind busy
    /// receivers — attributed **per operator** (summed over its queries),
    /// so congestion effects (and the adaptive join window's response to
    /// them) are visible where they happen, not only in workload totals.
    pub queue_us: u64,
    /// Probe keys this operator's queries served from the posting cache.
    pub cache_hits: u64,
    /// Probe keys that rode a coalesced multi-key exchange.
    pub probes_coalesced: u64,
    /// Largest adaptive join window this operator's queries reached (0
    /// for fixed windows and non-join operators).
    pub window_peak: usize,
    /// Adaptive-window congestion back-offs this operator's queries
    /// performed.
    pub window_shrinks: u64,
    /// Answered / addressed partition legs over this operator's queries —
    /// 1.0 on a healthy network, below it when dead partitions dropped
    /// branches or deadlines forfeited them.
    pub completeness: f64,
    /// Replica-fallback retries this operator's queries performed.
    pub retries: u64,
    /// Queries of this operator that returned a knowingly partial result.
    pub gave_up: u64,
}

sqo_obs::json_record! {
    LatencySummary { count, mean_us, p50_us, p95_us, p99_us, max_us };
    OperatorLatency {
        operator, summary, messages, queue_us, cache_hits, probes_coalesced, window_peak,
        window_shrinks, completeness, retries, gave_up,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&xs, 50.0), 50);
        assert_eq!(percentile_us(&xs, 95.0), 95);
        assert_eq!(percentile_us(&xs, 99.0), 99);
        assert_eq!(percentile_us(&xs, 100.0), 100);
        assert_eq!(percentile_us(&[7], 99.0), 7);
        assert_eq!(percentile_us(&[], 99.0), 0);
    }

    #[test]
    fn histogram_summary_matches_exact_sort_for_small_samples() {
        // The small-sample bias pin: for n = 1..=5 the histogram-backed
        // summary equals the sorted-vec nearest-rank summary field for
        // field.
        let samples: &[&[u64]] =
            &[&[7], &[1200, 90], &[3, 3, 3], &[10, 2000, 5, 40], &[1, 2, 3, 1000, 100]];
        for xs in samples {
            let mut h = LogHistogram::new();
            for &v in *xs {
                h.record(v);
            }
            assert_eq!(LatencySummary::of_histogram(&h), LatencySummary::of(xs), "{xs:?}");
        }
    }

    #[test]
    fn histogram_summary_quantile_error_is_bounded() {
        let xs: Vec<u64> = (0..2000).map(|i| 50_000 + i * 331).collect();
        let mut h = LogHistogram::new();
        for &v in &xs {
            h.record(v);
        }
        let exact = LatencySummary::of(&xs);
        let approx = LatencySummary::of_histogram(&h);
        let bound = LogHistogram::relative_error_bound();
        for (a, e) in [
            (approx.p50_us, exact.p50_us),
            (approx.p95_us, exact.p95_us),
            (approx.p99_us, exact.p99_us),
        ] {
            assert!((a.abs_diff(e) as f64) <= (e as f64) * bound + 1.0, "approx={a} exact={e}");
        }
        assert_eq!(approx.max_us, exact.max_us, "max is exact");
        assert_eq!(approx.mean_us, exact.mean_us, "mean sums exactly");
    }

    #[test]
    fn summary_orders_invariants() {
        let s = LatencySummary::of(&[5, 1, 9, 3, 7, 100, 2, 4, 6, 8]);
        assert_eq!(s.count, 10);
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us && s.p99_us <= s.max_us);
        assert_eq!(s.max_us, 100);
    }
}
