//! Per-query cost accounting.
//!
//! The overlay's [`Metrics`] counts traffic; [`QueryStats`] adds the
//! operator-level view: candidate-set sizes, verification work, and
//! enlargement rounds. The Figure-1 benches read `traffic.messages` and
//! `traffic.result_bytes`; the ablations read the rest.

use sqo_overlay::{Metrics, SimLatency};

/// Cost profile of one operator invocation.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryStats {
    /// Network traffic attributable to this query (snapshot delta).
    pub traffic: Metrics,
    /// Simulated-latency profile: present when the engine's network has a
    /// virtual-time sink installed (see `sqo-sim`), `None` in the plain
    /// message-counting mode. `sim.elapsed_us` is the critical-path time of
    /// the query under the configured latency model, with parallel fan-outs
    /// accounted as max-over-branches rather than summed hops.
    pub sim: Option<SimLatency>,
    /// Stage-1 index probes issued (distinct gram keys / fan-out partitions).
    pub probes: usize,
    /// Candidates that survived the cheap filters and entered stage 2.
    pub candidates: usize,
    /// Edit-distance verifications performed (anywhere in the system —
    /// includes the naive baseline's local scans, exposing its hidden CPU
    /// cost, §6: "the enormous effort incurred by comparing the strings at
    /// the peers locally").
    pub edit_comparisons: u64,
    /// Final matches returned.
    pub matches: usize,
    /// Range-enlargement / distance-shell iterations (top-N).
    pub rounds: usize,
    /// Probe keys answered from the initiator-side posting cache
    /// (`sqo-cache`) without touching the overlay.
    pub cache_hits: u64,
    /// Probe keys that missed the cache (or ran with it disabled — the
    /// counter stays 0 without a broker, so `hits + misses > 0` implies
    /// the cache was consulted).
    pub cache_misses: u64,
    /// Probe keys that rode a coalesced multi-key message another task's
    /// batch window opened (the shared route was charged once).
    pub probes_coalesced: u64,
    /// Largest outstanding-selection window an adaptive
    /// ([`JoinWindow::Auto`](crate::adaptive::JoinWindow)) join reached;
    /// 0 for fixed windows and non-join queries. Aggregates as the max.
    pub join_window_peak: usize,
    /// Multiplicative window decreases adaptive joins performed (the
    /// congestion back-off count). Aggregates as the sum.
    pub join_window_shrinks: u64,
    /// Remote legs this query addressed: partitions (or owners) a probe,
    /// fetch or shower branch was aimed at. Together with
    /// `partitions_answered` this yields [`Self::completeness`] — the
    /// degraded-answer signal under churn.
    pub partitions_addressed: u64,
    /// Remote legs that actually answered. Equal to
    /// `partitions_addressed` on a healthy network.
    pub partitions_answered: u64,
    /// Route retries performed against alternate replicas (see
    /// `DegradePolicy`); 0 unless the policy enables retries *and* a leg
    /// failed.
    pub retries: u64,
    /// Queries that hit their virtual-time deadline and returned a partial
    /// answer early (0 or 1 per query; aggregates as the sum — the count
    /// of degraded-by-deadline queries).
    pub gave_up: u64,
}

impl QueryStats {
    /// Fraction of addressed legs that answered: 1.0 for a full answer
    /// (including the trivial all-local case), lower when churn silenced
    /// partitions or a deadline cut the query short.
    pub fn completeness(&self) -> f64 {
        if self.partitions_addressed == 0 {
            1.0
        } else {
            self.partitions_answered as f64 / self.partitions_addressed as f64
        }
    }

    /// Aggregate another query's stats into this one (workload totals).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.traffic.add(&other.traffic);
        match (&mut self.sim, &other.sim) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (None, Some(theirs)) => self.sim = Some(*theirs),
            _ => {}
        }
        self.probes += other.probes;
        self.candidates += other.candidates;
        self.edit_comparisons += other.edit_comparisons;
        self.matches += other.matches;
        self.rounds += other.rounds;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.probes_coalesced += other.probes_coalesced;
        self.join_window_peak = self.join_window_peak.max(other.join_window_peak);
        self.join_window_shrinks += other.join_window_shrinks;
        self.partitions_addressed += other.partitions_addressed;
        self.partitions_answered += other.partitions_answered;
        self.retries += other.retries;
        self.gave_up += other.gave_up;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fields() {
        let mut a = QueryStats {
            probes: 2,
            candidates: 5,
            matches: 1,
            join_window_peak: 6,
            join_window_shrinks: 1,
            ..Default::default()
        };
        let b = QueryStats {
            probes: 3,
            candidates: 7,
            matches: 2,
            edit_comparisons: 9,
            rounds: 1,
            cache_hits: 4,
            cache_misses: 2,
            probes_coalesced: 1,
            join_window_peak: 4,
            join_window_shrinks: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.probes, 5);
        assert_eq!(a.candidates, 12);
        assert_eq!(a.matches, 3);
        assert_eq!(a.edit_comparisons, 9);
        assert_eq!(a.rounds, 1);
        assert_eq!(a.cache_hits, 4);
        assert_eq!(a.cache_misses, 2);
        assert_eq!(a.probes_coalesced, 1);
        assert_eq!(a.join_window_peak, 6, "peak aggregates as the max");
        assert_eq!(a.join_window_shrinks, 3, "shrinks aggregate as the sum");
    }

    #[test]
    fn completeness_is_answered_over_addressed() {
        let full = QueryStats::default();
        assert_eq!(full.completeness(), 1.0, "no remote legs means a full answer");
        let degraded = QueryStats {
            partitions_addressed: 8,
            partitions_answered: 6,
            retries: 2,
            gave_up: 1,
            ..Default::default()
        };
        assert_eq!(degraded.completeness(), 0.75);
        let mut sum =
            QueryStats { partitions_addressed: 4, partitions_answered: 4, ..Default::default() };
        sum.absorb(&degraded);
        assert_eq!(sum.partitions_addressed, 12);
        assert_eq!(sum.partitions_answered, 10);
        assert_eq!(sum.retries, 2);
        assert_eq!(sum.gave_up, 1);
    }
}
