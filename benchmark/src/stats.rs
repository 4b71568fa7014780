//! Order statistics for noisy host timings: median with min and MAD as the
//! noise estimate, nearest-rank percentiles, and the rule that decides
//! which percentile a sample is large enough to report.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median: the run-to-run noise
/// estimate printed beside every host metric.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9 / p99 / p95 / p90 that still leaves at least ten
/// samples beyond it; below that a "percentile" is a max in disguise and
/// only the median is reported (`None`).
pub fn supported_percentile(samples: usize) -> Option<f64> {
    // In per-mille and integers, so that 10 000 samples carry a p99.9.
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|pm| samples - (samples * pm).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// A host metric over repetitions: what is reported (median) and how much
/// to trust it (min, MAD, count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub mad: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        Summary {
            median: median(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            mad: mad(xs),
            n: xs.len(),
        }
    }

    /// A value that was not repeated (model metrics, counts).
    pub fn exact(x: f64) -> Self {
        Summary { median: x, min: x, mad: 0.0, n: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One stalled repetition moves neither the median nor the MAD much.
        let xs = [1.0, 1.1, 0.9, 1.0, 14.0];
        assert_eq!(median(&xs), 1.0);
        assert!((mad(&xs) - 0.1).abs() < 1e-12);
        let s = Summary::of(&xs);
        assert_eq!((s.min, s.n), (0.9, 5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 95.0), 95);
        assert_eq!(percentile(&xs, 100.0), 100);
        assert_eq!(percentile(&[7], 95.0), 7);
    }

    #[test]
    fn ten_beyond_rule() {
        // The smallest latency sample of the suite (240 ingest reads)
        // supports p95 (12 beyond) and not p99 (2.4 beyond).
        assert_eq!(supported_percentile(240), Some(95.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(99), None);
        // 24 samples per cell, the old latency sweep: nothing but a median.
        assert_eq!(supported_percentile(24), None);
    }
}
