//! The discrete-event core: a virtual clock plus a binary-heap event queue
//! with deterministic tie-breaking.
//!
//! Events are `(time, payload)` pairs; equal-time events pop in insertion
//! order (a monotone sequence number breaks ties), so a simulation run is a
//! pure function of its inputs — no dependence on heap internals or hash
//! ordering.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at_us: u64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at_us == other.at_us && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed on purpose: `BinaryHeap` is a max-heap and we want the
    /// earliest event on top.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at_us, other.seq).cmp(&(self.at_us, self.seq))
    }
}

/// A min-heap of timed events driving a virtual clock.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now_us: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), seq: 0, now_us: 0 }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `ev` at `at_us`. Scheduling into the past is clamped to
    /// `now` — the clock never runs backwards.
    pub fn push(&mut self, at_us: u64, ev: E) {
        let at_us = at_us.max(self.now_us);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at_us, seq, ev });
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.at_us >= self.now_us, "event queue must be monotone");
        self.now_us = e.at_us;
        Some((e.at_us, e.ev))
    }

    /// Timestamp of the event [`pop`](Self::pop) would return next, without
    /// popping it. Checkpointing peeks here to find a quiesce boundary (the
    /// decision to pause must happen *before* an event is consumed).
    pub fn peek_next_us(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.at_us)
    }

    /// Walk the queue into an owned [`QueueState`]: every pending entry
    /// with its original `(at_us, seq)`, sorted in pop order so equal
    /// queues export equal state.
    pub fn export_state(&self) -> QueueState<E>
    where
        E: Clone,
    {
        let mut entries: Vec<(u64, u64, E)> =
            self.heap.iter().map(|e| (e.at_us, e.seq, e.ev.clone())).collect();
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        QueueState { seq: self.seq, now_us: self.now_us, entries }
    }

    /// Rebuild a queue from an exported image. Entries keep their original
    /// sequence numbers, so the restored queue pops in exactly the order
    /// the exported one would have.
    pub fn from_state(state: QueueState<E>) -> Self {
        let mut heap = BinaryHeap::with_capacity(state.entries.len());
        for (at_us, seq, ev) in state.entries {
            assert!(seq < state.seq, "pending entry seq must precede the counter");
            assert!(at_us >= state.now_us, "pending entry must not be in the past");
            heap.push(Entry { at_us, seq, ev });
        }
        Self { heap, seq: state.seq, now_us: state.now_us }
    }
}

/// The owned image of an [`EventQueue`] (checkpointing): pending entries
/// as `(at_us, seq, ev)` in pop order, plus the sequence counter and the
/// clock.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueState<E> {
    pub seq: u64,
    pub now_us: u64,
    pub entries: Vec<(u64, u64, E)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a1");
        q.push(10, "a2");
        q.push(20, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a1", "a2", "b", "c"]);
    }

    /// A task re-enqueueing a step at the current timestamp must go
    /// *behind* already-queued same-time events: the sequence counter is
    /// global and monotone, so one query scheduling several same-time
    /// steps cannot starve or overtake its peers. (This is the FIFO
    /// guarantee the interleaving driver's fairness rests on.)
    #[test]
    fn reenqueued_same_time_steps_queue_behind_waiting_events() {
        let mut q = EventQueue::new();
        q.push(10, "a1");
        q.push(10, "b");
        assert_eq!(q.pop(), Some((10, "a1")));
        // "a" immediately re-enqueues at the same timestamp (a fan-out
        // branch at its fork point): it must pop after the waiting "b".
        q.push(10, "a2");
        q.push(10, "a3");
        assert_eq!(q.pop(), Some((10, "b")));
        assert_eq!(q.pop(), Some((10, "a2")));
        assert_eq!(q.pop(), Some((10, "a3")));
        // Clamped past-pushes obey the same order among themselves.
        q.push(5, "c1");
        q.push(5, "c2");
        assert_eq!(q.pop(), Some((10, "c1")));
        assert_eq!(q.pop(), Some((10, "c2")));
    }

    /// Snapshot/restore mid-stream must not perturb pop order — the
    /// property the driver's byte-identical pause/resume pin rests on.
    #[test]
    fn state_round_trip_preserves_pop_order() {
        let pushes: Vec<(u64, u32)> =
            (0..300u32).map(|i| (((i * 53) % 17) as u64 * 7, i)).collect();
        let filled = || {
            let mut q = EventQueue::new();
            for &(t, v) in &pushes {
                q.push(t, v);
            }
            q
        };
        let mut whole = filled();
        let expected: Vec<(u64, u32)> = std::iter::from_fn(|| whole.pop()).collect();

        // Interrupted run: pop 100, snapshot, restore, drain.
        let mut q = filled();
        let mut got: Vec<(u64, u32)> = (0..100).map(|_| q.pop().unwrap()).collect();
        let state = q.export_state();
        assert_eq!(state.entries.len(), pushes.len() - 100);
        let mut restored = EventQueue::from_state(state.clone());
        assert_eq!(restored.peek_next_us(), q.peek_next_us());
        got.extend(std::iter::from_fn(|| restored.pop()));
        assert_eq!(got, expected, "pop order diverged across the round trip");
        // Export of a restored queue matches the original export.
        assert_eq!(EventQueue::from_state(state.clone()).export_state(), state);
    }

    /// A restored queue keeps allocating sequence numbers after the old
    /// counter, so new events interleave exactly as they would have.
    #[test]
    fn restored_queue_continues_the_sequence() {
        let mut q = EventQueue::new();
        q.push(10, 1u32);
        q.push(10, 2);
        let mut r = EventQueue::from_state(q.export_state());
        r.push(10, 3);
        let drained: Vec<u32> = std::iter::from_fn(|| r.pop()).map(|(_, v)| v).collect();
        assert_eq!(drained, vec![1, 2, 3], "new push must sort after restored same-time events");
    }

    #[test]
    fn clock_is_monotone_and_past_pushes_clamp() {
        let mut q = EventQueue::new();
        q.push(100, 1);
        assert_eq!(q.pop(), Some((100, 1)));
        q.push(50, 2); // in the past -> clamped to now
        assert_eq!(q.pop(), Some((100, 2)));
        assert_eq!(q.now_us(), 100);
    }
}
