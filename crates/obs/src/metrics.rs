//! `MetricsRegistry` — one named-metric schema for the whole workspace.
//!
//! Five PRs grew five counter surfaces: `QueryStats`, overlay
//! [`Metrics`], `BrokerCounters`, the AIMD `window_trace()`, and
//! the driver's ad-hoc latency vectors. The registry absorbs them all
//! behind three primitive kinds — **counters** (monotone sums), **gauges**
//! (last-written values), and **histograms** ([`LogHistogram`]) — keyed by
//! dotted names (`traffic.messages`, `cache.hits`, `latency.query_us`), so
//! the driver and the bench serialize one uniform schema. The original
//! structs stay as typed views; the registry is built *from* them, never
//! replaces them.
//!
//! ## Schema
//!
//! Every name the driver emits, with its kind and source — `traffic.*`,
//! `query.*`, `join.*`, `sim.*`, `cache.*`, `latency.*`, `op.<op>.*`,
//! `run.*`, `repair.*` — is listed once, in the "Metric names" section of
//! `docs/TRACING.md`; `sqo-sim`'s `obs_smoke` test holds the driver's
//! output to that list in both directions.
//!
//! [`Metrics`]: sqo_overlay::Metrics

use crate::hist::LogHistogram;
use sqo_core::{BrokerCounters, QueryStats};
use std::collections::BTreeMap;

/// A named bag of counters, gauges and histograms.
///
/// Writes ([`ToJson`](crate::ToJson)) as three name-sorted JSON maps —
/// deterministic for a deterministic run.
///
/// ```
/// use sqo_obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.counter_add("traffic.messages", 42);
/// m.counter_add("traffic.messages", 8);
/// m.gauge_set("cache.hit_rate", 0.75);
/// m.record("latency.query_us", 1_200);
/// assert_eq!(m.counter("traffic.messages"), 50);
/// assert_eq!(m.gauge("cache.hit_rate"), Some(0.75));
/// assert_eq!(m.histogram("latency.query_us").unwrap().count(), 1);
/// let json = sqo_obs::to_json(&m);
/// assert!(json.contains("\"traffic.messages\":50"));
/// ```
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

crate::json_record! { MetricsRegistry { counters, gauges, histograms }; }

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to a monotone counter (created at 0 on first touch). Saturates
    /// at `u64::MAX` instead of wrapping — a counter that pegs stays
    /// pegged, it never silently restarts from a small value.
    pub fn counter_add(&mut self, name: impl Into<String>, n: u64) {
        let c = self.counters.entry(name.into()).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to its latest observed value.
    pub fn gauge_set(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record one sample into a named histogram (created empty on first
    /// touch).
    pub fn record(&mut self, name: impl Into<String>, value: u64) {
        self.histograms.entry(name.into()).or_default().record(value);
    }

    /// Insert (or merge into) a named histogram wholesale.
    pub fn histogram_merge(&mut self, name: impl Into<String>, h: &LogHistogram) {
        self.histograms.entry(name.into()).or_default().merge(h);
    }

    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Name-sorted counter iteration.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Name-sorted gauge iteration.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Name-sorted histogram iteration.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Fold another registry into this one: counters add, gauges take the
    /// other's value, histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            self.counter_add(k.clone(), v);
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.histogram_merge(k.clone(), h);
        }
    }

    /// Absorb a [`QueryStats`] (typically a workload total) under the
    /// `traffic.*` / `query.*` / `sim.*` / `join.*` schema. The stats
    /// struct itself is untouched — it remains the typed view.
    pub fn absorb_query_stats(&mut self, s: &QueryStats) {
        self.counter_add("traffic.messages", s.traffic.messages);
        self.counter_add("traffic.bytes", s.traffic.bytes);
        self.counter_add("traffic.route_hops", s.traffic.route_hops);
        self.counter_add("traffic.forward_msgs", s.traffic.forward_msgs);
        self.counter_add("traffic.result_msgs", s.traffic.result_msgs);
        self.counter_add("traffic.result_bytes", s.traffic.result_bytes);
        self.counter_add("traffic.failed_routes", s.traffic.failed_routes);
        self.counter_add("traffic.local_items_scanned", s.traffic.local_items_scanned);
        self.counter_add("query.probes", s.probes as u64);
        self.counter_add("query.candidates", s.candidates as u64);
        self.counter_add("query.edit_comparisons", s.edit_comparisons);
        self.counter_add("query.matches", s.matches as u64);
        self.counter_add("query.rounds", s.rounds as u64);
        self.counter_add("query.cache_hits", s.cache_hits);
        self.counter_add("query.cache_misses", s.cache_misses);
        self.counter_add("query.probes_coalesced", s.probes_coalesced);
        self.counter_add("query.partitions_addressed", s.partitions_addressed);
        self.counter_add("query.partitions_answered", s.partitions_answered);
        self.counter_add("query.retries", s.retries);
        self.counter_add("query.gave_up", s.gave_up);
        self.counter_add("join.window_shrinks", s.join_window_shrinks);
        if s.join_window_peak > 0 {
            let peak = self.gauge("join.window_peak").unwrap_or(0.0);
            self.gauge_set("join.window_peak", peak.max(s.join_window_peak as f64));
        }
        if let Some(sim) = &s.sim {
            self.counter_add("sim.net_us", sim.net_us);
            self.counter_add("sim.queue_us", sim.queue_us);
            self.counter_add("sim.service_us", sim.service_us);
            self.counter_add("sim.timed_messages", sim.timed_messages);
            self.counter_add("sim.retransmissions", sim.retransmissions);
            self.counter_add("sim.crit_net_us", sim.crit_net_us);
            self.counter_add("sim.crit_queue_us", sim.crit_queue_us);
            self.counter_add("sim.crit_service_us", sim.crit_service_us);
            self.counter_add("sim.crit_stall_us", sim.crit_stall_us);
        }
    }

    /// Absorb broker-lifetime [`BrokerCounters`] under the `cache.*`
    /// schema.
    pub fn absorb_broker_counters(&mut self, c: &BrokerCounters) {
        self.counter_add("cache.hits", c.cache_hits);
        self.counter_add("cache.misses", c.cache_misses);
        self.counter_add("cache.probes_coalesced", c.probes_coalesced);
        self.counter_add("cache.channels_opened", c.channels_opened);
        self.counter_add("cache.admission_rejects", c.admission_rejects);
        self.counter_add("cache.messages_saved", c.messages_saved);
        self.gauge_set("cache.hit_rate", c.hit_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_json;

    #[test]
    fn absorbing_stats_and_counters_builds_the_schema() {
        let mut s = QueryStats::default();
        s.traffic.messages = 12;
        s.traffic.bytes = 480;
        s.probes = 3;
        s.cache_hits = 2;
        s.join_window_peak = 8;
        let c = BrokerCounters { cache_hits: 2, cache_misses: 2, ..Default::default() };
        let mut m = MetricsRegistry::new();
        m.absorb_query_stats(&s);
        m.absorb_broker_counters(&c);
        assert_eq!(m.counter("traffic.messages"), 12);
        assert_eq!(m.counter("query.probes"), 3);
        assert_eq!(m.counter("query.cache_hits"), 2);
        assert_eq!(m.counter("cache.hits"), 2);
        assert_eq!(m.gauge("cache.hit_rate"), Some(0.5));
        assert_eq!(m.gauge("join.window_peak"), Some(8.0));
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = MetricsRegistry::new();
        a.counter_add("x", 1);
        a.record("h", 100);
        let mut b = MetricsRegistry::new();
        b.counter_add("x", 2);
        b.record("h", 300);
        b.gauge_set("g", 1.5);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.gauge("g"), Some(1.5));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h").unwrap().max(), 300);
    }

    #[test]
    fn merge_empty_into_nonempty_is_identity_both_ways() {
        let mut m = MetricsRegistry::new();
        m.counter_add("c", 5);
        m.gauge_set("g", 2.5);
        m.record("h", 40);
        let before = to_json(&m);
        m.merge(&MetricsRegistry::new());
        assert_eq!(to_json(&m), before, "merging an empty registry changes nothing");
        let mut empty = MetricsRegistry::new();
        empty.merge(&m);
        assert_eq!(to_json(&empty), before, "merging into an empty registry copies");
    }

    #[test]
    fn merge_disjoint_names_union_and_counters_saturate() {
        let mut a = MetricsRegistry::new();
        a.counter_add("only.a", u64::MAX - 1);
        a.record("hist.a", 10);
        let mut b = MetricsRegistry::new();
        b.counter_add("only.b", 7);
        b.record("hist.b", 99_000_000);
        a.merge(&b);
        assert_eq!(a.counter("only.a"), u64::MAX - 1);
        assert_eq!(a.counter("only.b"), 7);
        assert!(a.histogram("hist.a").is_some() && a.histogram("hist.b").is_some());
        // Counter overflow saturates rather than wraps — both via merge and
        // via direct adds.
        a.merge(&b); // only.b: 7 + 7
        assert_eq!(a.counter("only.b"), 14);
        a.counter_add("only.a", 100);
        assert_eq!(a.counter("only.a"), u64::MAX, "pegged, not wrapped");
        let mut c = MetricsRegistry::new();
        c.counter_add("only.a", u64::MAX);
        a.merge(&c);
        assert_eq!(a.counter("only.a"), u64::MAX, "merge saturates too");
    }

    #[test]
    fn json_is_deterministic_and_name_sorted() {
        let mut m = MetricsRegistry::new();
        m.counter_add("b.second", 2);
        m.counter_add("a.first", 1);
        let json = to_json(&m);
        assert!(json.find("a.first").unwrap() < json.find("b.second").unwrap());
        assert_eq!(json, to_json(&m.clone()));
    }
}
