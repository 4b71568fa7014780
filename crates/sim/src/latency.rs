//! Pluggable link-latency models and message loss.
//!
//! Latency is sampled per message in virtual microseconds. All models are
//! deterministic given the simulator seed and the message sequence; the
//! per-link model is additionally *stable*: the same directed pair always
//! sees the same latency, which is what makes it a model of a real
//! heterogeneous WAN topology rather than of per-packet jitter.

use rand::rngs::StdRng;
use rand::Rng;
use sqo_overlay::PeerId;

/// How long a message takes on the wire, `from → to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every link, every message: `us` microseconds (a LAN, or the paper's
    /// implicit unit-cost hop model made explicit).
    Constant { us: u64 },
    /// Per-message uniform jitter in `[min_us, max_us]`.
    Uniform { min_us: u64, max_us: u64 },
    /// Log-normally distributed per-message latency — the classic WAN
    /// round-trip shape (long right tail). `median_us` is the distribution
    /// median, `sigma` the log-space standard deviation (0.5 ≈ mild tail,
    /// 1.0 ≈ heavy tail).
    LogNormal { median_us: f64, sigma: f64 },
    /// Per-directed-link fixed latency, drawn once from `[min_us, max_us]`
    /// by hashing `(from, to, salt)`. Asymmetric: `a → b` and `b → a`
    /// differ, like real asymmetric routes.
    PerLink { min_us: u64, max_us: u64, salt: u64 },
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Constant { us: 1_000 }
    }
}

impl LatencyModel {
    /// Short label for reports and bench JSON.
    pub fn label(&self) -> &'static str {
        match self {
            LatencyModel::Constant { .. } => "constant",
            LatencyModel::Uniform { .. } => "uniform",
            LatencyModel::LogNormal { .. } => "lognormal",
            LatencyModel::PerLink { .. } => "perlink",
        }
    }

    /// Sample the link latency of one message.
    pub fn sample(&self, from: PeerId, to: PeerId, rng: &mut StdRng) -> u64 {
        self.draw(from, to, rng, self.log_median())
    }

    /// The log-normal model's `ln(median)` (0 for another): computed once
    /// per simulator, [`Self::sample`] is [`Self::draw`] given it.
    pub(crate) fn log_median(&self) -> f64 {
        let Self::LogNormal { median_us, .. } = *self else { return 0.0 };
        median_us.max(1.0).ln()
    }

    pub(crate) fn draw(&self, from: PeerId, to: PeerId, rng: &mut StdRng, log_median: f64) -> u64 {
        match *self {
            LatencyModel::Constant { us } => us,
            LatencyModel::Uniform { min_us, max_us } => {
                assert!(min_us <= max_us, "uniform latency: min > max");
                rng.gen_range(min_us..=max_us)
            }
            LatencyModel::LogNormal { sigma, .. } => {
                // Box–Muller; ln(median) is the log-space mean.
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let x = (log_median + sigma * z).exp();
                x.clamp(1.0, 60_000_000.0) as u64 // cap at 60 s of virtual time
            }
            LatencyModel::PerLink { min_us, max_us, salt } => {
                assert!(min_us <= max_us, "per-link latency: min > max");
                let h = mix64((from.0 as u64) << 32 | to.0 as u64, salt ^ 0x9E37_79B9_7F4A_7C15);
                min_us + h % (max_us - min_us + 1)
            }
        }
    }
}

/// SplitMix64 finalizer — stable per-link hashing.
fn mix64(x: u64, salt: u64) -> u64 {
    let mut z = x.wrapping_add(salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Message loss with timeout-driven retransmission. A lost attempt costs
/// `timeout_us` before the sender retries; after `max_retries` losses the
/// message is delivered on the final attempt regardless, so simulated
/// queries always terminate (the real protocol would surface an error —
/// modeling that belongs to the churn machinery, which kills peers
/// outright).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    /// Per-attempt loss probability, `0.0` disables loss entirely.
    pub p: f64,
    /// Retransmission timeout.
    pub timeout_us: u64,
    /// Maximum retransmissions per message.
    pub max_retries: u32,
}

impl Default for LossModel {
    fn default() -> Self {
        Self { p: 0.0, timeout_us: 200_000, max_retries: 3 }
    }
}

impl LossModel {
    /// Sample the loss penalty of one message: `(added_us, retransmissions)`.
    pub fn sample(&self, rng: &mut StdRng) -> (u64, u32) {
        if self.p <= 0.0 {
            return (0, 0);
        }
        let mut retx = 0u32;
        while retx < self.max_retries && rng.gen_bool(self.p.min(1.0)) {
            retx += 1;
        }
        (self.timeout_us * retx as u64, retx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant { us: 777 };
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(PeerId(1), PeerId(2), &mut r), 777);
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let m = LatencyModel::Uniform { min_us: 100, max_us: 200 };
        let mut r = rng();
        for _ in 0..500 {
            let x = m.sample(PeerId(0), PeerId(1), &mut r);
            assert!((100..=200).contains(&x));
        }
    }

    #[test]
    fn lognormal_median_is_roughly_right() {
        let m = LatencyModel::LogNormal { median_us: 10_000.0, sigma: 0.5 };
        let mut r = rng();
        let mut xs: Vec<u64> = (0..2_000).map(|_| m.sample(PeerId(0), PeerId(1), &mut r)).collect();
        xs.sort_unstable();
        let median = xs[xs.len() / 2];
        assert!((7_000..14_000).contains(&median), "median {median} far from configured 10000");
        // Right-skew: the mean exceeds the median for sigma > 0.
        let mean = xs.iter().sum::<u64>() / xs.len() as u64;
        assert!(mean > median);
    }

    /// A draw given the log-median computed once is the draw that
    /// computed it per message, bit for bit, for the first 10 000 draws of
    /// each model.
    #[test]
    fn a_hoisted_log_median_draws_what_the_per_message_one_drew() {
        for sigma in [0.5, 0.8, 1.0] {
            for median_us in [0.5, 1_500.0] {
                let m = LatencyModel::LogNormal { median_us, sigma };
                let (mut hoisted, mut inline) = (rng(), rng());
                let log_median = m.log_median();
                for k in 0..10_000 {
                    let u1: f64 = inline.gen::<f64>().max(f64::MIN_POSITIVE);
                    let u2: f64 = inline.gen();
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    let x = (median_us.max(1.0).ln() + sigma * z).exp();
                    let want = x.clamp(1.0, 60_000_000.0) as u64;
                    let got = m.draw(PeerId(0), PeerId(1), &mut hoisted, log_median);
                    assert_eq!(got, want, "draw {k}, sigma {sigma}, median {median_us}");
                }
            }
        }
    }

    #[test]
    fn per_link_is_stable_and_asymmetric() {
        let m = LatencyModel::PerLink { min_us: 1_000, max_us: 50_000, salt: 3 };
        let mut r = rng();
        let ab1 = m.sample(PeerId(4), PeerId(9), &mut r);
        let ab2 = m.sample(PeerId(4), PeerId(9), &mut r);
        assert_eq!(ab1, ab2, "per-link latency must be stable");
        // Over many pairs, at least one direction differs.
        let asym = (0..32u32).any(|i| {
            m.sample(PeerId(i), PeerId(i + 1), &mut r) != m.sample(PeerId(i + 1), PeerId(i), &mut r)
        });
        assert!(asym, "per-link model should be directionally asymmetric");
    }

    #[test]
    fn loss_penalty_bounded_and_off_by_default() {
        let mut r = rng();
        assert_eq!(LossModel::default().sample(&mut r), (0, 0));
        let lossy = LossModel { p: 0.9, timeout_us: 1_000, max_retries: 4 };
        for _ in 0..200 {
            let (us, retx) = lossy.sample(&mut r);
            assert!(retx <= 4);
            assert_eq!(us, 1_000 * retx as u64);
        }
    }
}
