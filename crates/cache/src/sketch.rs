//! A TinyLFU-style frequency sketch: approximate access counts in 4-bit
//! counters, with periodic halving so the estimate tracks *recent*
//! popularity rather than all of history.
//!
//! The sketch backs the posting cache's **admission gate**: when the cache
//! is full, a new key is admitted only if its estimated access frequency
//! exceeds the eviction victim's — one-hit wonders (an endless stream of
//! keys seen exactly once) can no longer wash hot entries out of a small
//! cache. This is the count-min + doorkeeper + aging core of Einziger et
//! al.'s TinyLFU, sized for the few-thousand-entry caches this workload
//! runs: a key's **first** reference in a sample period only enters the
//! doorkeeper set, so the endless wonder stream never pollutes the
//! count-min counters with hash collisions.

use rustc_hash::FxHashSet;

/// Counters per hashed key (count-min rows).
const HASHES: usize = 4;
/// 4-bit counters saturate here.
const COUNTER_MAX: u8 = 15;

/// Approximate access-frequency counter over hashed keys.
#[derive(Debug, Clone)]
pub struct FrequencySketch {
    /// 4-bit counters, two per byte.
    table: Vec<u8>,
    /// Counter slots (a power of two).
    slots: usize,
    /// First-reference filter: a key's initial access in a sample period
    /// lands here instead of the counters (cleared on aging).
    doorkeeper: FxHashSet<u64>,
    /// Accesses recorded since the last halving.
    recorded: u64,
    /// Halve all counters after this many recorded accesses.
    reset_at: u64,
}

impl FrequencySketch {
    /// A sketch sized for a cache of `capacity` entries: ~8 counter slots
    /// per entry, aged after `10 × capacity` recorded accesses (the sample
    /// period of the TinyLFU paper).
    pub fn for_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(8) * 8).next_power_of_two();
        Self {
            table: vec![0; slots / 2],
            slots,
            doorkeeper: FxHashSet::default(),
            recorded: 0,
            reset_at: (capacity.max(8) as u64) * 10,
        }
    }

    fn index(&self, hash: u64, i: usize) -> usize {
        // Distinct avalanched views of one 64-bit hash per row.
        let h = hash
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left((i as u32 + 1) * 17)
            .wrapping_add(i as u64);
        (h as usize) & (self.slots - 1)
    }

    fn get_counter(&self, slot: usize) -> u8 {
        let byte = self.table[slot / 2];
        if slot.is_multiple_of(2) {
            byte & 0x0F
        } else {
            byte >> 4
        }
    }

    fn set_counter(&mut self, slot: usize, v: u8) {
        let byte = &mut self.table[slot / 2];
        if slot.is_multiple_of(2) {
            *byte = (*byte & 0xF0) | (v & 0x0F);
        } else {
            *byte = (*byte & 0x0F) | (v << 4);
        }
    }

    /// Record one access to the key hashing to `hash`. A key's first
    /// access in the current sample period only enters the doorkeeper;
    /// repeat accesses increment the count-min counters — so one-hit
    /// wonders never pollute the counters of genuinely hot keys.
    pub fn record(&mut self, hash: u64) {
        if self.doorkeeper.insert(hash) {
            // First sighting this period: the doorkeeper absorbs it.
        } else {
            for i in 0..HASHES {
                let slot = self.index(hash, i);
                let c = self.get_counter(slot);
                if c < COUNTER_MAX {
                    self.set_counter(slot, c + 1);
                }
            }
        }
        self.recorded += 1;
        if self.recorded >= self.reset_at {
            self.age();
        }
    }

    /// Estimated access count of the key hashing to `hash`: the count-min
    /// minimum over rows (an upper bound that ages away), plus one if the
    /// doorkeeper has seen the key this period.
    pub fn estimate(&self, hash: u64) -> u8 {
        let counted = (0..HASHES).map(|i| self.get_counter(self.index(hash, i))).min().unwrap_or(0);
        counted.saturating_add(u8::from(self.doorkeeper.contains(&hash)))
    }

    /// Halve every counter and clear the doorkeeper (the TinyLFU reset),
    /// so the sketch favors recent popularity.
    fn age(&mut self) {
        for byte in &mut self.table {
            // Halve both nibbles in place.
            *byte = (*byte >> 1) & 0x77;
        }
        self.doorkeeper.clear();
        self.recorded = 0;
    }

    /// Walk the sketch into an owned [`SketchState`]. The doorkeeper set
    /// is exported **sorted**, so equal sketches always export equal
    /// state regardless of hash-set iteration order.
    pub fn export_state(&self) -> SketchState {
        let mut doorkeeper: Vec<u64> = self.doorkeeper.iter().copied().collect();
        doorkeeper.sort_unstable();
        SketchState {
            table: self.table.clone(),
            slots: self.slots as u64,
            doorkeeper,
            recorded: self.recorded,
            reset_at: self.reset_at,
        }
    }

    /// Rebuild a sketch from an exported image.
    ///
    /// # Panics
    /// Panics on internally inconsistent state ([`SketchState::check`]) —
    /// a decoder checks first, so this is a bug, not a runtime condition.
    pub fn from_state(state: SketchState) -> Self {
        if let Err(breach) = state.check() {
            panic!("{breach}");
        }
        Self {
            table: state.table,
            slots: state.slots as usize,
            doorkeeper: state.doorkeeper.into_iter().collect(),
            recorded: state.recorded,
            reset_at: state.reset_at,
        }
    }
}

/// The owned image of a [`FrequencySketch`] (checkpointing): counter
/// table, sorted doorkeeper, and the aging position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchState {
    pub table: Vec<u8>,
    pub slots: u64,
    pub doorkeeper: Vec<u64>,
    pub recorded: u64,
    pub reset_at: u64,
}

impl SketchState {
    /// What [`FrequencySketch::from_state`] requires of an image.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.slots < 2 || !self.slots.is_power_of_two() {
            return Err("sketch slot count must be a power of two, and at least one byte's worth");
        }
        if self.table.len() as u64 != self.slots / 2 {
            return Err("sketch table is not two 4-bit counters per byte");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_keys_estimate_higher_than_cold() {
        let mut s = FrequencySketch::for_capacity(64);
        for _ in 0..10 {
            s.record(42);
        }
        s.record(7);
        assert!(s.estimate(42) > s.estimate(7));
        assert_eq!(s.estimate(999), 0, "never-seen keys estimate 0");
    }

    #[test]
    fn counters_saturate() {
        let mut s = FrequencySketch::for_capacity(64);
        for _ in 0..100 {
            s.record(1);
        }
        assert!(s.estimate(1) <= COUNTER_MAX + 1, "count-min saturates (+1 doorkeeper)");
    }

    #[test]
    fn aging_halves_estimates() {
        let mut s = FrequencySketch::for_capacity(8);
        for _ in 0..12 {
            s.record(5);
        }
        let before = s.estimate(5);
        // Drive enough accesses to distinct keys to trigger the reset.
        for k in 0..200u64 {
            s.record(1_000 + k);
        }
        assert!(
            s.estimate(5) < before,
            "aging must decay stale popularity ({} -> {})",
            before,
            s.estimate(5)
        );
    }

    #[test]
    fn state_round_trip_resumes_the_same_sketch() {
        let mut s = FrequencySketch::for_capacity(32);
        for k in 0..50u64 {
            s.record(k % 9);
        }
        let mut r = FrequencySketch::from_state(s.export_state());
        for k in 0..20u64 {
            assert_eq!(s.estimate(k), r.estimate(k), "estimates diverge at {k}");
        }
        // Both sketches continue identically, including through an aging
        // reset (recorded/reset_at position is part of the state).
        for k in 0..400u64 {
            s.record(1_000 + k);
            r.record(1_000 + k);
        }
        assert_eq!(s.export_state(), r.export_state());
    }

    #[test]
    fn one_hit_wonders_stay_low() {
        let mut s = FrequencySketch::for_capacity(128);
        for _ in 0..14 {
            s.record(77);
        }
        for k in 0..500u64 {
            s.record(10_000 + k);
        }
        // The hot key dominates any single one-hit wonder even after the
        // stream (collisions may lift wonders slightly, never above hot).
        let hot = s.estimate(77);
        let wonder = s.estimate(10_250);
        assert!(hot > wonder, "hot {hot} vs wonder {wonder}");
    }
}
