//! Message and bandwidth accounting.
//!
//! The paper's evaluation (§6) measures exactly two quantities — "the number
//! of messages and bandwidth usage, because these are the limiting factors
//! for overlay networks". Every simulated network interaction passes through
//! [`Metrics`], which additionally keeps a breakdown by message role so the
//! ablation benches can attribute cost.

/// Cumulative traffic counters for a network (or a window of its activity).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Total messages of any kind.
    pub messages: u64,
    /// Total bytes across all messages (headers + payloads).
    pub bytes: u64,
    /// Routing hops (Algorithm 1 forwarding steps).
    pub route_hops: u64,
    /// Intra-subtree forwards (shower fan-out of range / prefix queries).
    pub forward_msgs: u64,
    /// Result-bearing messages (owner → initiator or delegation successor).
    pub result_msgs: u64,
    /// Payload bytes of result messages only (the paper's "data volume").
    pub result_bytes: u64,
    /// Routing attempts that found no alive reference (churn experiments).
    pub failed_routes: u64,
    /// Items touched by local scans — not traffic, but exposes the hidden
    /// local CPU cost of the naive method the paper remarks on.
    pub local_items_scanned: u64,
}

impl Metrics {
    /// Counter state at a point in time; subtract snapshots to get a window.
    pub fn snapshot(&self) -> Metrics {
        *self
    }

    /// Component-wise difference `self - earlier` (saturating, though
    /// counters are monotone by construction).
    pub fn delta(&self, earlier: &Metrics) -> Metrics {
        Metrics {
            messages: self.messages - earlier.messages,
            bytes: self.bytes - earlier.bytes,
            route_hops: self.route_hops - earlier.route_hops,
            forward_msgs: self.forward_msgs - earlier.forward_msgs,
            result_msgs: self.result_msgs - earlier.result_msgs,
            result_bytes: self.result_bytes - earlier.result_bytes,
            failed_routes: self.failed_routes - earlier.failed_routes,
            local_items_scanned: self.local_items_scanned - earlier.local_items_scanned,
        }
    }

    /// Component-wise sum, for aggregating per-query deltas.
    pub fn add(&mut self, other: &Metrics) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.route_hops += other.route_hops;
        self.forward_msgs += other.forward_msgs;
        self.result_msgs += other.result_msgs;
        self.result_bytes += other.result_bytes;
        self.failed_routes += other.failed_routes;
        self.local_items_scanned += other.local_items_scanned;
    }

    pub(crate) fn count_hop(&mut self, header_bytes: usize) {
        self.messages += 1;
        self.route_hops += 1;
        self.bytes += header_bytes as u64;
    }

    pub(crate) fn count_forward(&mut self, header_bytes: usize) {
        self.messages += 1;
        self.forward_msgs += 1;
        self.bytes += header_bytes as u64;
    }

    pub(crate) fn count_result(&mut self, header_bytes: usize, payload_bytes: usize) {
        self.messages += 1;
        self.result_msgs += 1;
        self.bytes += (header_bytes + payload_bytes) as u64;
        self.result_bytes += payload_bytes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_delta() {
        let mut m = Metrics::default();
        m.count_hop(48);
        m.count_hop(48);
        let snap = m.snapshot();
        m.count_result(48, 200);
        m.count_forward(48);
        let d = m.delta(&snap);
        assert_eq!(d.messages, 2);
        assert_eq!(d.route_hops, 0);
        assert_eq!(d.result_msgs, 1);
        assert_eq!(d.result_bytes, 200);
        assert_eq!(d.forward_msgs, 1);
        assert_eq!(d.bytes, 48 + 200 + 48);
        assert_eq!(m.messages, 4);
    }

    #[test]
    fn add_aggregates() {
        let mut a = Metrics::default();
        a.count_hop(10);
        let mut b = Metrics::default();
        b.count_result(10, 5);
        a.add(&b);
        assert_eq!(a.messages, 2);
        assert_eq!(a.bytes, 25);
        assert_eq!(a.result_bytes, 5);
    }
}
