//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a script of [`FaultEvent`]s the workload driver
//! replays at their virtual times, interleaved with arrivals and query
//! steps on the same event queue: random crash waves, targeted partition
//! wipes, revivals of previously-dead peers, and transient loss spikes on
//! the installed [`LossModel`]. Everything is a pure
//! function of the plan and the driver seed — two runs of the same plan
//! produce byte-identical reports, which is what lets `BENCH_churn.json`
//! be a golden file.
//!
//! Plans compose with the driver's repair hook
//! ([`DriverConfig::repair`](crate::DriverConfig)): after every
//! membership fault the driver runs one
//! [`Network::repair_epoch`](sqo_overlay::Network::repair_epoch) pass when
//! a [`ReplicationPolicy`](sqo_overlay::ReplicationPolicy) is configured,
//! so the same script measures both the unrepaired decay and the
//! self-healing response.

use crate::latency::LossModel;
use crate::seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub at_us: u64,
    pub kind: FaultKind,
}

/// What goes wrong at [`FaultEvent::at_us`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Crash-stop a random fraction of all peers (dead peers keep their
    /// stores — crash, not disk loss).
    Crash { fraction: f64 },
    /// Kill every alive member of one partition — the targeted wipe that
    /// makes a slice of the key space unreachable until a revival or a
    /// repair pass restores coverage.
    WipePartition { part: usize },
    /// Revive a random fraction of the currently-dead peers.
    Revive { fraction: f64 },
    /// Swap the installed loss model for `loss` during `duration_us` of
    /// virtual time, then restore the run's baseline — a transient network
    /// brown-out (retransmission storms, inflated tails) without any peer
    /// dying.
    LossSpike { loss: LossModel, duration_us: u64 },
}

impl FaultKind {
    /// Short label for traces and logs.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::WipePartition { .. } => "wipe-partition",
            FaultKind::Revive { .. } => "revive",
            FaultKind::LossSpike { .. } => "loss-spike",
        }
    }
}

/// A deterministic fault script. The default (empty) plan injects nothing
/// and leaves the driver's behavior byte-identical to a run without any
/// fault machinery — the zero-fault equivalence the tests pin.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Events in any order; the driver's event queue replays them by
    /// `at_us` (FIFO on ties, in plan order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A periodic crash/revive cadence over `[0, horizon_us)`: every
    /// `period_us` a crash wave kills `crash_fraction` of the network, and
    /// half a period later a revival brings back `revive_fraction` of the
    /// dead. Event times are jittered by up to a quarter period, seeded
    /// from `seed` via the dedicated fault stream
    /// ([`seed::FAULT_STREAM`]) — deterministic, but not phase-locked to
    /// arrival times.
    pub fn periodic(
        seed_val: u64,
        horizon_us: u64,
        period_us: u64,
        crash_fraction: f64,
        revive_fraction: f64,
    ) -> Self {
        assert!(period_us > 0, "periodic fault plan needs a positive period");
        let mut events = Vec::new();
        let jitter_span = (period_us / 4).max(1);
        let mut k = 0u64;
        loop {
            let base = k * period_us;
            if base >= horizon_us {
                break;
            }
            let mut rng = StdRng::seed_from_u64(seed::derive(seed_val, seed::FAULT_STREAM, k));
            let crash_at = base + rng.gen_range(0..jitter_span);
            events.push(FaultEvent {
                at_us: crash_at,
                kind: FaultKind::Crash { fraction: crash_fraction },
            });
            if revive_fraction > 0.0 {
                let revive_at = base + period_us / 2 + rng.gen_range(0..jitter_span);
                events.push(FaultEvent {
                    at_us: revive_at,
                    kind: FaultKind::Revive { fraction: revive_fraction },
                });
            }
            k += 1;
        }
        Self { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn periodic_plan_is_deterministic_and_jittered() {
        let a = FaultPlan::periodic(7, 1_000_000, 200_000, 0.1, 0.5);
        let b = FaultPlan::periodic(7, 1_000_000, 200_000, 0.1, 0.5);
        assert_eq!(a, b, "same seed must script the same plan");
        let c = FaultPlan::periodic(8, 1_000_000, 200_000, 0.1, 0.5);
        assert_ne!(a, c, "a different seed must move the jitter");
        // 5 periods, crash + revive each.
        assert_eq!(a.events.len(), 10);
        for (i, ev) in a.events.iter().enumerate() {
            let period = (i / 2) as u64;
            assert!(ev.at_us >= period * 200_000 && ev.at_us < (period + 1) * 200_000);
        }
    }

    #[test]
    fn periodic_without_revive_only_crashes() {
        let p = FaultPlan::periodic(1, 400_000, 100_000, 0.2, 0.0);
        assert_eq!(p.events.len(), 4);
        assert!(p.events.iter().all(|e| matches!(e.kind, FaultKind::Crash { .. })));
    }

    #[test]
    fn labels_cover_every_kind() {
        let kinds = [
            FaultKind::Crash { fraction: 0.1 },
            FaultKind::WipePartition { part: 3 },
            FaultKind::Revive { fraction: 0.5 },
            FaultKind::LossSpike { loss: LossModel::default(), duration_us: 1 },
        ];
        let labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["crash", "wipe-partition", "revive", "loss-spike"]);
    }
}
