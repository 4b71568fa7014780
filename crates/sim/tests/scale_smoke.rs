//! Scale smoke tests for the sharded parallel event core:
//!
//! * a 10⁵-peer overlay snapshot drives a full `ScaleSim` workload inside
//!   the RSS-per-peer budget,
//! * the sharded windowed core is **bit-identical** to the serial heap
//!   baseline at integration scale (the small-topology determinism cases
//!   and the property sweep live in the root `tests/scale_core.rs`).

use sqo_overlay::hash::hash_str;
use sqo_overlay::key::Key;
use sqo_overlay::network::{Network, NetworkConfig};
use sqo_overlay::peer::Item;
use sqo_sim::{rss_now_bytes, run_serial, run_sharded, ScaleConfig, Topology};
use std::sync::OnceLock;

#[derive(Debug, Clone)]
struct W(String);

impl Item for W {
    fn size_bytes(&self) -> usize {
        self.0.len()
    }
}

fn corpus(n: usize) -> Vec<(Key, W)> {
    (0..n).map(|i| (hash_str(&format!("w{i:07}")), W(format!("w{i:07}")))).collect()
}

/// The 10⁵-peer snapshot, built once and shared by the tests below (the
/// build is the expensive part; `Topology` is read-only by design).
fn big_topology() -> &'static (Topology, u64) {
    static TOPO: OnceLock<(Topology, u64)> = OnceLock::new();
    TOPO.get_or_init(|| {
        let peers = 100_000;
        let rss_before = rss_now_bytes().unwrap_or(0);
        let net = Network::build(
            NetworkConfig { peers, replication: 3, seed: 7, ..NetworkConfig::default() },
            corpus(100_000),
        );
        let rss_after = rss_now_bytes().unwrap_or(0);
        let per_peer = rss_after.saturating_sub(rss_before) / peers as u64;
        let topo = Topology::of_network(&net);
        (topo, per_peer)
    })
}

/// 10⁵ peers: the arena-backed overlay stays inside the RSS budget (the
/// seed held 5 649 B/peer; the issue demands ≥ 3× less) and a full
/// sharded workload completes every query.
#[test]
fn hundred_thousand_peers_fit_and_complete() {
    let (topo, rss_per_peer) = big_topology();
    assert_eq!(topo.peer_count(), 100_000);
    if *rss_per_peer > 0 {
        assert!(
            *rss_per_peer <= 5_649 / 3,
            "overlay RSS {rss_per_peer} B/peer exceeds a third of the 5 649 B/peer seed"
        );
    }

    let cfg = ScaleConfig { queries: 300, arrival_spread_us: 20_000, ..ScaleConfig::default() };
    let (out, run) = run_sharded(topo, &cfg);
    assert_eq!(out.queries_done, 300, "every query completes: {out:?}");
    assert!(out.events > 300, "multi-hop routing produces more events than queries");
    assert_eq!(run.events, out.events);
    assert!(out.max_done_us > 0 && out.checksum != 0);
}

/// At the same 10⁵-peer scale, every shard count reproduces the serial
/// heap baseline bit for bit.
#[test]
fn sharded_is_bit_identical_to_serial_at_scale() {
    let (topo, _) = big_topology();
    let cfg = ScaleConfig { queries: 200, arrival_spread_us: 20_000, ..ScaleConfig::default() };
    let (serial, _) = run_serial(topo, &cfg);
    assert_eq!(serial.queries_done, 200);
    for shards in [1, 2, 4] {
        let (out, _) = run_sharded(topo, &ScaleConfig { shards, ..cfg });
        assert_eq!(out, serial, "shards={shards} diverged from serial");
    }
}
