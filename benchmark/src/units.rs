//! Unit-cost loops: nanoseconds per call of a layer's public kernel,
//! looped over inputs sampled from the workload's own strings, keys and
//! (query, stored value) pairs. They price the layers that run nested
//! inside an operator call, where no outside span can reach.
//!
//! Overlay kernels are timed with no virtual-time sink installed: the
//! sink's per-message work belongs to `sim`, and is visible as
//! `sim.netsim_overhead_ratio` and inside `core.unattributed_share`.
//!
//! Like every host time of the benchmark, the loops are speed-normalised
//! (see [`crate::pace`]): a cost is nanoseconds at nominal machine speed.

use crate::rng::{Rng, Zipf};
use crate::span::Tracer;
use crate::surface::{
    instance_gram_key, levenshtein_bounded, qgrams, qsamples, vql_parse, EventQueue,
    FrequencySketch, Key, LogHistogram, LruCache, PeerId, Posting, SimilarityEngine,
};
use crate::workloads::{Layers, Size};
use std::hint::black_box;
use std::time::Instant;

/// Run `batch` (which returns how many kernel calls it made) until the
/// size's loop time has passed; nanoseconds per call.
pub fn ns_per_call(size: Size, mut batch: impl FnMut() -> u64) -> f64 {
    let (mut pacer, mut tr) = (size.pacer(), Tracer::off());
    let start = Instant::now();
    let mut calls = 0u64;
    pacer.begin(&mut tr);
    while start.elapsed().as_secs_f64() < size.unit_loop_s() {
        calls += batch();
        pacer.lap(&mut tr);
    }
    pacer.end(&mut tr);
    pacer.normalised_s() * 1e9 / calls.max(1) as f64
}

/// `levenshtein_bounded` over (query, stored value, bound) triples.
pub fn lev_bounded_ns(pairs: &[(String, String, usize)], size: Size) -> f64 {
    ns_per_call(size, || {
        for (a, b, d) in pairs {
            black_box(levenshtein_bounded(black_box(a), black_box(b), *d));
        }
        pairs.len() as u64
    })
}

pub fn qgrams_ns(strings: &[String], q: usize, size: Size) -> f64 {
    ns_per_call(size, || {
        for s in strings {
            black_box(qgrams(black_box(s), q));
        }
        strings.len() as u64
    })
}

pub fn qsamples_ns(strings: &[String], q: usize, d: usize, size: Size) -> f64 {
    ns_per_call(size, || {
        for s in strings {
            black_box(qsamples(black_box(s), q, d));
        }
        strings.len() as u64
    })
}

/// Routing and retrieval costs of one overlay.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlayUnits {
    /// ns per routing hop of `Network::route`.
    pub hop_ns: f64,
    pub hops_per_route: f64,
    /// ns per `Network::retrieve_list` call (route + reply).
    pub retrieve_ns: f64,
    /// The same loop per overlay message: the price of one simulated
    /// message, used by the busy-share estimate.
    pub msg_ns: f64,
}

/// `route` and `retrieve_list` from random initiators to `keys`.
pub fn overlay_units(engine: &mut SimilarityEngine, keys: &[Key], size: Size) -> OverlayUnits {
    let from: Vec<PeerId> = keys.iter().map(|_| engine.random_peer()).collect();
    let net = engine.network_mut();
    let before = *net.metrics();
    let mut routes = 0u64;
    let route_ns = ns_per_call(size, || {
        for (p, k) in from.iter().zip(keys) {
            black_box(net.route(*p, k).ok());
        }
        routes += keys.len() as u64;
        keys.len() as u64
    });
    let hops = net.metrics().delta(&before).route_hops.max(1);

    let before = *net.metrics();
    let mut retrieves = 0u64;
    let retrieve_ns = ns_per_call(size, || {
        for (p, k) in from.iter().zip(keys) {
            black_box(net.retrieve_list(*p, k).ok());
        }
        retrieves += keys.len() as u64;
        keys.len() as u64
    });
    let msgs = net.metrics().delta(&before).messages.max(1);
    OverlayUnits {
        hop_ns: route_ns * routes as f64 / hops as f64,
        hops_per_route: hops as f64 / routes as f64,
        retrieve_ns,
        msg_ns: retrieve_ns * retrieves as f64 / msgs as f64,
    }
}

/// The kernels every engine-backed workload prices: edit distance and gram
/// extraction over its own strings, routing and retrieval to the gram keys
/// those strings probe. Reports them and returns the three the busy-share
/// estimate needs.
pub fn string_and_overlay_units(
    sample: &[String],
    pairs: &[(String, String, usize)],
    (attr, q, d): (&str, usize, usize),
    engine: &mut SimilarityEngine,
    size: Size,
    out: &mut Layers,
) -> Costs {
    let keys: Vec<Key> = sample
        .iter()
        .flat_map(|s| qgrams(s, q).into_iter().take(2))
        .map(|g| instance_gram_key(attr, &g.gram))
        .collect();
    let lev_ns = lev_bounded_ns(pairs, size);
    let qgrams_ns = qgrams_ns(sample, q, size);
    let overlay = overlay_units(engine, &keys, size);
    out.insert("strsim.lev_bounded_ns", lev_ns);
    out.insert("strsim.qgrams_ns", qgrams_ns);
    out.insert("strsim.qsamples_ns", qsamples_ns(sample, q, d, size));
    out.insert("overlay.hop_ns", overlay.hop_ns);
    out.insert("overlay.hops_per_route", overlay.hops_per_route);
    out.insert("overlay.retrieve_ns", overlay.retrieve_ns);
    Costs { msg_ns: overlay.msg_ns, lev_ns, qgrams_ns, ..Costs::default() }
}

/// ns per stored item touched by `Network::range_query` over `[lo, hi]`
/// (the caller passes a range wide enough that scanning, not routing,
/// dominates).
pub fn scan_ns_per_item(engine: &mut SimilarityEngine, lo: &Key, hi: &Key, size: Size) -> f64 {
    let from = engine.random_peer();
    let net = engine.network_mut();
    let before = *net.metrics();
    let mut calls = 0u64;
    let call_ns = ns_per_call(size, || {
        black_box(net.range_query(from, lo, hi).ok());
        calls += 1;
        1
    });
    let items = net.metrics().delta(&before).local_items_scanned.max(1);
    call_ns * calls as f64 / items as f64
}

/// ns per `Network::insert_item`. Inserting changes the store, so every
/// pass starts from a fresh engine (`thaw`, untimed).
pub fn insert_ns(
    mut thaw: impl FnMut() -> SimilarityEngine,
    postings: &[(Key, Posting)],
    size: Size,
) -> f64 {
    let (mut pacer, mut tr) = (size.pacer(), Tracer::off());
    let mut calls = 0u64;
    while pacer.raw_s() < size.unit_loop_s() {
        let mut engine = thaw();
        let batch = postings.to_vec();
        pacer.begin(&mut tr);
        for (key, posting) in batch {
            engine.network_mut().insert_item(key, posting);
        }
        pacer.end(&mut tr);
        calls += postings.len() as u64;
        black_box(&engine);
    }
    pacer.normalised_s() * 1e9 / calls.max(1) as f64
}

/// ns per `EventQueue` push+pop pair at a steady depth of `depth` events.
pub fn event_queue_ns(depth: usize, seed: u64, size: Size) -> f64 {
    let mut rng = Rng::new(seed);
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..depth {
        q.push(rng.next_u64() % 1_000_000, i as u32);
    }
    ns_per_call(size, || {
        for _ in 0..1024 {
            let (now, ev) = q.pop().expect("the queue never drains");
            q.push(now + 1 + rng.next_u64() % 1_000_000, black_box(ev));
        }
        1024
    })
}

/// The cache kernels on a Zipf(1.1) key stream at the broker's default
/// capacity (4096) over a key space four times that size, so eviction is
/// live: ns per `LruCache::get` (+ `put` on a miss), and ns per
/// `FrequencySketch::record` + `estimate`.
pub fn cache_units(seed: u64, size: Size) -> (f64, f64) {
    const CAPACITY: usize = 4096;
    let zipf = Zipf::new(4 * CAPACITY, 1.1);
    let mut rng = Rng::new(seed);
    let stream: Vec<u64> = (0..65_536).map(|_| zipf.sample(&mut rng) as u64).collect();

    let mut lru: LruCache<u64, u64> = LruCache::new(CAPACITY, u64::MAX);
    let lru_ns = ns_per_call(size, || {
        for &k in &stream {
            if lru.get(&k, 0, 0).is_none() {
                lru.put(k, k, 0, 0);
            }
        }
        stream.len() as u64
    });
    black_box(lru.len());

    let mut sketch = FrequencySketch::for_capacity(CAPACITY);
    let sketch_ns = ns_per_call(size, || {
        for &k in &stream {
            // The sketch takes pre-hashed keys; spread the ranks.
            let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            sketch.record(h);
            black_box(sketch.estimate(h));
        }
        stream.len() as u64
    });
    (lru_ns, sketch_ns)
}

pub fn hist_record_ns(seed: u64, size: Size) -> f64 {
    let mut rng = Rng::new(seed);
    let values: Vec<u64> = (0..4096).map(|_| 1_000 + rng.next_u64() % 200_000).collect();
    let mut h = LogHistogram::new();
    let ns = ns_per_call(size, || {
        for &v in &values {
            h.record(v);
        }
        values.len() as u64
    });
    black_box(h.count());
    ns
}

/// Median µs of `sqo_vql::parse` over `texts`, each text timed 64 calls
/// at a time so that the clock read does not dominate.
pub fn vql_parse_us_p50(texts: &[String], size: Size) -> f64 {
    let (mut pacer, mut tr) = (size.pacer(), Tracer::off());
    let start = Instant::now();
    let mut per_call_us = Vec::new();
    pacer.begin(&mut tr);
    while start.elapsed().as_secs_f64() < size.unit_loop_s() {
        for text in texts {
            let t = Instant::now();
            for _ in 0..64 {
                black_box(vql_parse(black_box(text)).is_ok());
            }
            per_call_us.push(t.elapsed().as_secs_f64() * 1e6 / 64.0);
        }
        pacer.lap(&mut tr);
    }
    pacer.end(&mut tr);
    crate::stats::median(&per_call_us) * pacer.factor()
}

/// What the busy-share estimate multiplies: unit costs and the counts no
/// program counter exposes directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    pub msg_ns: f64,
    pub scan_ns_per_item: f64,
    pub insert_ns: f64,
    /// `insert_item` calls in the measured phase.
    pub inserts: f64,
    pub lev_ns: f64,
    pub qgrams_ns: f64,
    /// q-gram extractions in the measured phase (one per query string,
    /// one per published value).
    pub gram_calls: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_call_scales_with_work() {
        let spin = |n: u64| {
            ns_per_call(Size::Smoke, || {
                let mut x = 0u64;
                for i in 0..n {
                    x = black_box(x.wrapping_add(i));
                }
                black_box(x);
                1
            })
        };
        // black_box is a hint: confirm time grows with iteration count.
        assert!(spin(200_000) > 5.0 * spin(10_000));
    }

    #[test]
    fn kernels_report_positive_costs() {
        assert!(event_queue_ns(16, 1, Size::Smoke) > 0.0);
        let (lru, sketch) = cache_units(1, Size::Smoke);
        assert!(lru > 0.0 && sketch > 0.0);
        assert!(hist_record_ns(1, Size::Smoke) > 0.0);
        let text = "SELECT ?o WHERE { (?o,word,?v) FILTER (dist(?v,'house') < 2) }".to_string();
        assert!(vql_parse(&text).is_ok());
        assert!(vql_parse_us_p50(&[text], Size::Smoke) > 0.0);
    }
}
