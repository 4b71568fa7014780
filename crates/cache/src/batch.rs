//! Cross-query probe coalescing via **partition channels**: the first probe
//! to a partition routes normally and leaves the routed multi-key exchange
//! open for a small virtual-time window; probes arriving within the window
//! — from any in-flight task — ride the open channel as additional keys,
//! charged one direct request/reply pair instead of a full routed chain.
//! The overlay pays the routing once per window.
//!
//! An earlier design parked probes until a window *deadline* and flushed
//! them as one synchronized message. On the discrete-event simulator that
//! synchronization was strictly worse: every probe waited out the window,
//! deadline herds swamped the hot partition owners, and closed-loop
//! workloads amplified the queueing into multi-x tail inflation. The
//! backward-looking window keeps the full coalescing win (the route is
//! charged once) while never delaying anyone — riders depart immediately
//! and their chains stay as short as an ordinary probe's.
//!
//! Channels carry the churn epoch: any membership change closes every open
//! channel (the remembered owner may be dead), exactly like the posting
//! cache's entries. The pool is pure bookkeeping; the engine performs and
//! charges the actual exchanges.

use rustc_hash::FxHashMap;
use sqo_overlay::peer::PeerId;

/// One open multi-key exchange with a partition's owner.
#[derive(Debug, Clone, Copy)]
pub struct PartitionChannel {
    /// The peer the routed exchange reached (scans happen there).
    pub owner: PeerId,
    /// Virtual time the routed exchange completed (window anchor).
    pub opened_us: u64,
    /// Route hops the opening exchange paid — what every rider saves.
    pub route_hops: u64,
    /// Churn epoch the channel was opened under.
    pub epoch: u64,
}

/// Per-partition open channels. See the module docs for the protocol.
pub struct ChannelPool {
    window_us: u64,
    channels: FxHashMap<usize, PartitionChannel>,
}

impl ChannelPool {
    pub fn new(window_us: u64) -> Self {
        Self { window_us, channels: FxHashMap::default() }
    }

    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// The open channel for `part` if it is still within its window and
    /// from the current churn epoch; stale channels are evicted.
    pub fn lookup(&mut self, part: usize, now_us: u64, epoch: u64) -> Option<PartitionChannel> {
        match self.channels.get(&part) {
            Some(c) if c.epoch == epoch && now_us.saturating_sub(c.opened_us) <= self.window_us => {
                Some(*c)
            }
            Some(_) => {
                self.channels.remove(&part);
                None
            }
            None => None,
        }
    }

    /// Record a freshly routed exchange as `part`'s open channel.
    pub fn record(&mut self, part: usize, owner: PeerId, route_hops: u64, now_us: u64, epoch: u64) {
        self.channels
            .insert(part, PartitionChannel { owner, opened_us: now_us, route_hops, epoch });
    }

    /// Walk the pool into an owned [`ChannelPoolState`]. Channels are
    /// exported sorted by partition, so equal pools export equal state.
    pub fn export_state(&self) -> ChannelPoolState {
        let mut channels: Vec<(u64, PartitionChannel)> =
            self.channels.iter().map(|(&p, &c)| (p as u64, c)).collect();
        channels.sort_unstable_by_key(|&(p, _)| p);
        ChannelPoolState { window_us: self.window_us, channels }
    }

    /// Rebuild a pool from an exported image.
    pub fn from_state(state: ChannelPoolState) -> Self {
        Self {
            window_us: state.window_us,
            channels: state.channels.into_iter().map(|(p, c)| (p as usize, c)).collect(),
        }
    }
}

/// The owned image of a [`ChannelPool`] (checkpointing).
#[derive(Debug, Clone)]
pub struct ChannelPoolState {
    pub window_us: u64,
    /// Open channels as `(partition, channel)`, sorted by partition.
    pub channels: Vec<(u64, PartitionChannel)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_within_the_window_ride_the_channel() {
        let mut p = ChannelPool::new(300);
        assert!(p.lookup(7, 1_000, 0).is_none());
        p.record(7, PeerId(9), 4, 1_000, 0);
        let c = p.lookup(7, 1_200, 0).expect("inside the window");
        assert_eq!(c.owner, PeerId(9));
        assert_eq!(c.route_hops, 4);
        assert!(p.lookup(7, 1_300, 0).is_some(), "window boundary is inclusive");
    }

    #[test]
    fn window_expiry_closes_the_channel() {
        let mut p = ChannelPool::new(300);
        p.record(3, PeerId(2), 3, 500, 0);
        assert!(p.lookup(3, 801, 0).is_none(), "past the window");
        assert!(p.lookup(3, 700, 0).is_none(), "expired channels are evicted, not revived");
    }

    #[test]
    fn churn_epoch_closes_every_channel() {
        let mut p = ChannelPool::new(1_000);
        p.record(1, PeerId(4), 5, 100, 0);
        assert!(p.lookup(1, 150, 1).is_none(), "membership change closes the channel");
        p.record(1, PeerId(5), 5, 200, 1);
        assert_eq!(p.lookup(1, 250, 1).unwrap().owner, PeerId(5));
    }

    #[test]
    fn state_round_trip_keeps_open_channels_and_counters() {
        let mut p = ChannelPool::new(300);
        p.record(7, PeerId(9), 4, 1_000, 2);
        p.record(3, PeerId(1), 2, 1_100, 2);
        p.lookup(7, 1_050, 2);
        let state = p.export_state();
        assert_eq!(state.channels.len(), 2);
        assert!(state.channels[0].0 < state.channels[1].0, "sorted by partition");
        let mut r = ChannelPool::from_state(state);
        assert_eq!(r.window_us(), 300);
        let c = r.lookup(7, 1_200, 2).expect("channel survived the round trip");
        assert_eq!((c.owner, c.route_hops), (PeerId(9), 4));
        assert!(r.lookup(3, 1_200, 2).is_some());
        assert!(r.lookup(3, 1_200, 3).is_none(), "epoch fencing still applies after restore");
    }

    #[test]
    fn channels_are_per_partition() {
        let mut p = ChannelPool::new(300);
        p.record(1, PeerId(4), 2, 100, 0);
        assert!(p.lookup(2, 150, 0).is_none());
        assert!(p.lookup(1, 150, 0).is_some());
    }
}
