//! The network's image: the data half of a [`Network`], as it is.
//!
//! A [`Network`] is a [`NetworkState`] plus its observers. The state is
//! everything a checkpoint must freeze — configuration, the [`Topology`],
//! churn flags, **one [`PartitionStore`] per partition**, traffic counters,
//! the cache epoch and the RNG — and [`Network::export_state`] is a clone
//! of it: small tables copied, one handle taken per run, O(partitions +
//! peers). The image shares every run with the live network, and either
//! side's next write to a run copies that run's arrays first
//! (copy-on-write, see [`crate::store`]), so an image never changes and
//! forks never see one another. [`Network::import_state`] wraps a clone of
//! an image in a network that behaves **identically**, down to the RNG
//! stream position: it makes exactly the draws the original would have
//! made next.
//!
//! An image is valid by construction: its fields are private, a live
//! network only ever holds a valid one, and the one way to make one from
//! parts, [`NetworkState::new`], runs the check a live network runs on
//! itself ([`Network::check_invariants`]). A decoder that goes through it
//! cannot hand out an image that panics in restore or routing.
//!
//! A serialized image writes each run as the arrays it is — key bytes, bit
//! lengths, end offsets, items ([`NetworkState::stores`]) — and a decoder
//! hands them back to [`crate::SortedStore::from_parts`], which refuses
//! arrays that are not a run. No run refers to another: a key shorter than
//! the trie depth is stored in each run that covers it.
//!
//! Event and trace sinks are not part of the image — they are observers
//! with their own capture surfaces (the simulator snapshots its `NetSim`
//! separately and re-installs it after import).

use crate::metrics::Metrics;
use crate::network::{Network, NetworkConfig};
use crate::peer::Item;
use crate::store::PartitionStore;
use crate::topology::Topology;
use rand::rngs::StdRng;

/// The data of a [`Network`] (see the module docs).
#[derive(Debug, Clone)]
pub struct NetworkState<T> {
    pub(crate) cfg: NetworkConfig,
    /// Partition cover, membership and routing references — the one copy.
    pub(crate) topo: Topology,
    /// Per-peer churn flag, by [`PeerId`](crate::PeerId) order; dead peers
    /// neither answer nor forward.
    pub(crate) alive: Vec<bool>,
    /// δ: the run of each partition, by partition index. Its members hold
    /// it in common — structural replication is that, not copies — and a
    /// partition without members keeps the empty run.
    pub(crate) stores: Vec<PartitionStore<T>>,
    pub(crate) metrics: Metrics,
    /// Monotone allocator backing [`Network::next_trace_query_id`].
    pub(crate) next_trace_query: u64,
    /// Monotone invalidation counter: bumped by every event that can make
    /// remotely cached data stale — churn ([`Network::fail_peer`],
    /// [`Network::revive_peer`], [`Network::fail_random_fraction`]) *and*
    /// data insertion ([`Network::insert_groups`], i.e. publications).
    /// Caches layered above the overlay key their entries by this epoch so
    /// nothing fetched before such an event is ever served after it: the
    /// probe broker's posting cache (`sqo-cache`), and the left side a
    /// similarity join keeps between scans (`sqo-core`'s `simjoin`), which
    /// also keys it by the runs the scans answered.
    pub(crate) cache_epoch: u64,
    pub(crate) rng: StdRng,
}

impl<T: Item> NetworkState<T> {
    /// An image from its parts (`rng` as xoshiro256++ state words), or the
    /// first invariant the parts break — [`Network::check_invariants`]
    /// lists them.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: NetworkConfig,
        topo: Topology,
        alive: Vec<bool>,
        stores: Vec<PartitionStore<T>>,
        metrics: Metrics,
        next_trace_query: u64,
        cache_epoch: u64,
        rng: [u64; 4],
    ) -> Result<Self, &'static str> {
        if rng == [0; 4] {
            return Err("the network's RNG state is all zero");
        }
        let rng = StdRng::from_state_words(rng);
        let state = Self { cfg, topo, alive, stores, metrics, next_trace_query, cache_epoch, rng };
        state.check().map(|()| state)
    }

    /// [`Network::check_invariants`], which lists what is checked; the
    /// topology's share is `Topology::check`, a run's [`Self::check_store`].
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        self.cfg.check()?;
        let peers = self.cfg.peers;
        if [self.alive.len(), self.topo.peer_count()] != [peers; 2] {
            return Err("the per-peer tables are not one entry per configured peer");
        }
        if self.stores.len() != self.topo.partition_count() {
            return Err("the stores are not one per partition");
        }
        self.topo.check()?;
        (0..self.stores.len()).try_for_each(|part| self.check_store(part))
    }

    /// The per-partition part of [`Self::check`], and what a write can
    /// break: the run of `part` ascends strictly, its ends increase
    /// strictly to its item count, each entry's items ascend by rank
    /// ([`crate::SortedStore::ranked`]), and it holds only keys
    /// prefix-related to the partition's path.
    pub(crate) fn check_store(&self, part: usize) -> Result<(), &'static str> {
        // Stored keys are compared where they lie: the walk allocates
        // nothing, so debug builds keep the release build's allocation counts.
        let (path, store) = (self.topo.paths[part].as_ref(), &self.stores[part]);
        if store.keys().any(|k| !(path.is_prefix_of(k) || k.is_prefix_of(path))) {
            return Err("a stored key lies outside its partition's subtree");
        }
        if !store.keys().zip(store.keys().skip(1)).all(|(a, b)| a < b) {
            return Err("a run does not ascend strictly");
        }
        let ends = store.ends();
        let rising = ends.iter().zip(std::iter::once(&0).chain(ends)).all(|(end, was)| end > was);
        if !rising || ends.last().map_or(0, |end| *end as usize) != store.item_count() {
            return Err("a run's ends do not increase strictly to its item count");
        }
        if !store.ranked() {
            return Err("a run's entry does not ascend by rank");
        }
        Ok(())
    }

    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Per-peer churn flags, by peer id.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn next_trace_query(&self) -> u64 {
        self.next_trace_query
    }

    pub fn cache_epoch(&self) -> u64 {
        self.cache_epoch
    }

    /// xoshiro256++ state words of the network RNG.
    pub fn rng_words(&self) -> [u64; 4] {
        self.rng.state_words()
    }

    /// δ: each partition's run, by partition index.
    pub fn stores(&self) -> &[PartitionStore<T>] {
        &self.stores
    }
}

impl<T: Item> Network<T> {
    /// The network's image: small state copied, one handle per run.
    pub fn export_state(&self) -> NetworkState<T> {
        self.image.clone()
    }

    /// A network on a copy of `state`, sharing the image's runs until it
    /// writes to them. No sinks are installed; callers re-attach their
    /// event/trace sinks afterwards. Nothing is rebuilt — in particular no
    /// routing table is rewired, which would consume draws the image froze.
    pub fn import_state(state: &NetworkState<T>) -> Self {
        Self::on(state.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_str;
    use crate::key::Key;
    use crate::peer::PeerId;
    use rand::{Rng, SeedableRng};

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct W(String);
    impl Item for W {
        fn size_bytes(&self) -> usize {
            self.0.len()
        }
    }

    fn word_net(n_peers: usize, n_words: usize, replication: usize) -> (Network<W>, Vec<String>) {
        let words: Vec<String> = (0..n_words).map(|i| format!("word{i:05}")).collect();
        let data: Vec<(Key, W)> = words.iter().map(|w| (hash_str(w), W(w.clone()))).collect();
        let cfg = NetworkConfig { peers: n_peers, replication, seed: 11, ..Default::default() };
        (Network::build(cfg, data), words)
    }

    #[test]
    fn round_trip_preserves_structure_counters_and_rng_stream() {
        let (mut net, words) = word_net(64, 300, 2);
        // Advance past the pristine build state: traffic, churn, RNG draws.
        for w in words.iter().step_by(13) {
            let from = net.random_peer();
            net.retrieve_list(from, &hash_str(w)).unwrap();
        }
        net.fail_random_fraction(0.1);

        let mut restored = Network::import_state(&net.export_state());
        assert_eq!(restored.peer_count(), net.peer_count());
        assert_eq!(restored.partition_count(), net.partition_count());
        assert_eq!(restored.paths(), net.paths());
        assert_eq!(restored.metrics(), net.metrics());
        assert_eq!(restored.cache_epoch(), net.cache_epoch());
        assert_eq!(restored.total_stored_items(), net.total_stored_items());
        for p in 0..net.peer_count() as u32 {
            let id = PeerId(p);
            assert_eq!(restored.peer_alive(id), net.peer_alive(id));
            assert_eq!(restored.peer_partition(id), net.peer_partition(id));
        }
        // The restored network holds the original's runs, not copies.
        for part in 0..restored.partition_count() {
            assert!(restored.partition_store(part).shares_with(net.partition_store(part)));
        }
        // The restored RNG continues the original's stream exactly: both
        // networks now make identical draws and identical traffic.
        for w in words.iter().step_by(7) {
            let a = net.random_peer();
            let b = restored.random_peer();
            assert_eq!(a, b, "initiator draws must continue the stream");
            assert_eq!(net.retrieve_list(a, &hash_str(w)), restored.retrieve_list(b, &hash_str(w)));
        }
        assert_eq!(net.metrics(), restored.metrics());
    }

    #[test]
    fn import_bypasses_the_build_path_rng_reseed() {
        // A freshly built network and an import of its pristine export
        // must be in the same RNG position — but that position is *after*
        // routing-table wiring, so a naive rebuild-through-build would
        // only coincide by accident. Draw from both to check.
        let (net, _) = word_net(32, 100, 1);
        let mut a = net;
        let mut b = Network::import_state(&a.export_state());
        let mut rng_probe = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let _ = rng_probe.gen_range(0..5usize); // unrelated stream, just churn the test
            assert_eq!(a.random_peer(), b.random_peer());
        }
    }

    #[test]
    fn short_keys_are_stored_per_partition_and_survive_the_round_trip() {
        // A key shorter than the trie depth is stored by every peered
        // partition of its subtree, each run holding its own copy of the
        // items; the image holds the runs as they are, and a network
        // imported from the image holds and counts what the original does.
        let (mut net, _) = word_net(64, 400, 1);
        let short = Key::parse("0");
        net.insert_item(short.clone(), W("short".into()));
        net.insert_item(short.clone(), W("again".into()));
        let state = net.export_state();
        let (s, e) = net.subtree_of(&short);
        let covering = net.topology().peered_in(s, e);
        assert!(covering.len() > 1, "the short key is stored by several partitions");
        for &part in covering {
            let items = state.stores()[part as usize].exact_entry(&short);
            assert_eq!(items, Some(&[W("short".into()), W("again".into())][..]), "{part}");
        }
        let stored: usize = state.stores().iter().map(|run| run.item_count()).sum();
        assert_eq!(stored, net.stored_items());
        assert_eq!(stored, 400 + 2 * covering.len(), "the short key's items once per run");
        let restored = Network::import_state(&state);
        assert_eq!(format!("{:?}", restored.export_state()), format!("{state:?}"));
        assert_eq!(restored.total_stored_items(), net.total_stored_items());
        assert_eq!(restored.total_stored_bytes(), net.total_stored_bytes());
    }

    #[test]
    fn an_image_is_a_set_of_handles_and_a_write_leaves_it_as_it_was() {
        let (mut net, _) = word_net(32, 200, 2);
        let state = net.export_state();
        for (part, store) in state.stores.iter().enumerate() {
            assert!(store.shares_with(net.partition_store(part)), "capture copies no run");
        }
        let before = format!("{state:?}");
        let key = hash_str("word00007");
        let part = net.partition_of(&key);
        net.insert_item(key.clone(), W("again".into()));
        assert!(!state.stores[part].shares_with(net.partition_store(part)), "the write copied");
        assert_eq!(net.partition_store(part).exact_entry(&key).map(|l| l.len()), Some(2));
        assert_eq!(state.stores[part].exact_entry(&key).map(|l| l.len()), Some(1));
        assert_eq!(format!("{state:?}"), before);
        let untouched = (0..net.partition_count())
            .filter(|p| *p != part)
            .all(|p| state.stores[p].shares_with(net.partition_store(p)));
        assert!(untouched, "only the written run was copied");
    }
}
