//! Property tests for the discrete-event core: clock monotonicity, FIFO
//! tie-breaking, and the fork/join critical-path algebra of `NetSim`.

use proptest::prelude::*;
use sqo_overlay::clock::{EventSink, MsgKind};
use sqo_overlay::PeerId;
use sqo_sim::{EventQueue, LatencyModel, NetSim, SimConfig};

proptest! {
    /// Pops come out sorted by time, and equal-time events keep insertion
    /// order; the clock never moves backwards.
    #[test]
    fn event_queue_is_monotone_and_stable(
        times in prop::collection::vec(0u64..1_000, 1..120),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut last_t = 0u64;
        let mut seen_at: Vec<(u64, usize)> = Vec::new();
        while let Some((t, id)) = q.pop() {
            prop_assert!(t >= last_t, "clock ran backwards: {t} < {last_t}");
            prop_assert_eq!(t, q.now_us());
            last_t = t;
            seen_at.push((t, id));
        }
        prop_assert_eq!(seen_at.len(), times.len());
        // FIFO among ties: ids with equal timestamps appear in push order.
        for w in seen_at.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie broke FIFO: {:?}", w);
            }
        }
        // Every event popped at its scheduled time.
        for (t, id) in &seen_at {
            prop_assert_eq!(*t, times[*id]);
        }
    }

    /// A query made of sequential hops plus one balanced fan-out always
    /// satisfies the critical-path algebra: `elapsed == end - start`,
    /// `elapsed` is at least the longest branch but at most the sum of all
    /// message spans, and the per-category sums account for every message.
    #[test]
    fn netsim_fork_join_critical_path(
        pre_hops in 0usize..4,
        branch_hops in prop::collection::vec(1usize..5, 1..6),
        latency_us in 1u64..10_000,
        seed in 0u64..50,
    ) {
        let peers = 16u32;
        let cfg = SimConfig {
            latency: LatencyModel::Constant { us: latency_us },
            service_us_per_msg: 7,
            service_us_per_kib: 0,
            scan_us_per_item: 0,
            seed,
            ..SimConfig::default()
        };
        let mut s = NetSim::new(cfg, peers as usize);
        s.begin_query();
        let mut peer = 0u32;
        let mut next_peer = || { peer = (peer + 1) % peers; PeerId(peer) };
        for _ in 0..pre_hops {
            s.deliver(PeerId(0), next_peer(), 48, MsgKind::Route, None);
        }
        s.fork();
        for hops in &branch_hops {
            s.branch();
            for _ in 0..*hops {
                s.deliver(PeerId(1), next_peer(), 48, MsgKind::Forward, None);
            }
        }
        s.join();
        let lat = s.end_query();

        let per_msg = latency_us + 7;
        let total_msgs = pre_hops + branch_hops.iter().sum::<usize>();
        prop_assert_eq!(lat.timed_messages as usize, total_msgs);
        prop_assert_eq!(lat.elapsed_us, lat.end_us - lat.start_us);
        // Longest branch bounds from below; serialized sum from above.
        // (Distinct receivers per hop and no cross-branch peer sharing in
        // this construction would make the bound exact, but the rotating
        // peer assignment can collide, so only the inequalities are stable.)
        let longest = *branch_hops.iter().max().unwrap() as u64;
        prop_assert!(lat.elapsed_us >= (pre_hops as u64 + longest) * per_msg);
        prop_assert!(lat.elapsed_us <= total_msgs as u64 * per_msg + lat.queue_us);
        prop_assert_eq!(lat.net_us, total_msgs as u64 * latency_us);
        prop_assert_eq!(lat.service_us, total_msgs as u64 * 7);
    }

    /// Identical NetSim runs produce identical profiles; different seeds
    /// may differ (jitter), same seeds may not.
    #[test]
    fn netsim_is_deterministic(seed in 0u64..1_000) {
        let run = || {
            let cfg = SimConfig {
                latency: LatencyModel::Uniform { min_us: 100, max_us: 5_000 },
                seed,
                ..SimConfig::default()
            };
            let mut s = NetSim::new(cfg, 8);
            s.begin_query();
            for i in 0..20u32 {
                s.deliver(PeerId(i % 8), PeerId((i + 3) % 8), 100, MsgKind::Route, None);
            }
            s.end_query()
        };
        prop_assert_eq!(run(), run());
    }
}
