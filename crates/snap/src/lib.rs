//! # sqo-snap — checkpoint, fork, and deterministic replay
//!
//! Every layer of the workspace is deterministic: the overlay draws from
//! a seeded xoshiro256++ stream, the event queues break ties with global
//! sequence numbers, the latency models are seeded per run. `sqo-snap`
//! turns that determinism into a facility: the **complete simulation
//! state** — overlay stores, routing arenas, churn flags, traffic
//! counters, every RNG stream position, broker caches mid-decay, the
//! paused driver's event queue and histograms — freezes into one
//! versioned binary artifact, and a restored run is **byte-identical** to
//! the run that never stopped.
//!
//! Three workflows fall out:
//!
//! * **Checkpoint/resume** — pause a long workload at a quiesce boundary
//!   ([`sqo_sim::run_driver_until`]), persist the [`Snapshot`], resume it
//!   later (possibly in another process) with [`sqo_sim::resume_driver`];
//!   the final [`DriverReport`](sqo_sim::DriverReport) matches the
//!   uninterrupted run byte for byte.
//! * **Fork** — build and warm one world, then [`Snapshot::fork`] N
//!   engines off it. Same-config forks are mutually byte-identical;
//!   diverging forks re-seed their workloads with
//!   [`sqo_sim::seed::derive`]`(seed, `[`FORK_STREAM`](sqo_sim::seed::FORK_STREAM)`, i)`.
//! * **Replay** — the scale core's event-level image
//!   ([`ScaleCheckpoint`]) rides along, so a paused million-peer run
//!   resumes on *any* shard count and still lands on the uninterrupted
//!   [`ScaleOutcome`](sqo_sim::ScaleOutcome).
//!
//! ## Artifact format
//!
//! A `b"SQSN"` magic, a little-endian `u32` [`SCHEMA_VERSION`], the triple
//! table, then the world/driver/scale sections in the explicit layout of
//! [`wire`] (a binary codec of its own, written by hand — and therefore
//! versionable byte by byte). Each record's
//! layout is one field list there, from which both its encoder and its
//! decoder follow ([`wire::Wire`]); a check runs where the record is
//! decoded. [`Snapshot::from_bytes`] refuses anything else: wrong magic is
//! [`SnapError::BadMagic`], a version skew is
//! [`SnapError::SchemaMismatch`], every read is bounds-checked, and the
//! network image is built through [`NetworkState::new`], which runs the
//! check a live network runs on itself — so corrupt input fails with an
//! error, never a huge allocation, a panic, or an image that panics later
//! in restore or routing. [`SnapError::exit_code`] keeps schema/format
//! mismatches (exit 3) distinct from damaged input (exit 2).
//!
//! What is **not** in the artifact: static configuration. The caller
//! that restores a snapshot supplies the same [`EngineConfig`] (and
//! `DriverConfig`/`ScaleConfig`) the original run used — configs are
//! code-adjacent inputs, snapshots carry only the dynamic state derived
//! from them. [`Snapshot::try_restore_engine`] cross-checks the network
//! config embedded in the world image and returns
//! [`SnapError::ConfigMismatch`] for a mismatched world
//! ([`Snapshot::restore_engine`] panics with it);
//! [`sqo_sim::resume_driver`] returns `Err` for a driver image that does not
//! fit the `DriverConfig` it is resumed under.
//!
//! ```
//! use sqo_core::EngineBuilder;
//! use sqo_datasets::{bible_words, string_rows};
//! use sqo_sim::{run_driver, DriverConfig};
//! use sqo_snap::Snapshot;
//!
//! let words = bible_words(120, 5);
//! let rows = string_rows("word", &words, "w");
//! let engine = EngineBuilder::new().peers(32).q(2).seed(9).build_with_rows(&rows);
//!
//! // Freeze the warm world once…
//! let snap = Snapshot::capture(&engine);
//! let bytes = snap.to_bytes();
//!
//! // …and fork two identical runs from it, no rebuild.
//! let snap = Snapshot::from_bytes(&bytes).unwrap();
//! let cfg = DriverConfig { clients: 2, queries_per_client: 2, ..Default::default() };
//! let [mut a, mut b]: [_; 2] =
//!     snap.fork(engine.config(), 2).try_into().ok().unwrap();
//! let ra = run_driver(&mut a, "word", &words, &cfg);
//! let rb = run_driver(&mut b, "word", &words, &cfg);
//! assert_eq!(
//!     sqo_obs::to_json(&ra),
//!     sqo_obs::to_json(&rb),
//!     "same-config forks are byte-identical"
//! );
//! ```

pub mod wire;

use sqo_cache::{BrokerState, CacheBatchBroker};
use sqo_core::{EngineConfig, SimilarityEngine};
use sqo_overlay::{Network, NetworkState};
use sqo_sim::driver::DriverCheckpoint;
use sqo_sim::scale::ScaleCheckpoint;
use sqo_storage::{Objects, Posting, PublishStats};
use std::fmt;
use std::rc::Rc;

/// Version of the artifact layout. Bump on any wire-format change;
/// [`Snapshot::from_bytes`] refuses other versions outright.
///
/// v2: query stats carry the degradation counters
/// (`partitions_addressed` / `partitions_answered` / `retries` /
/// `gave_up`), driver checkpoints carry the early/late phase
/// accumulators, repair totals and diagnostics, and pending fault /
/// fault-clear events serialize alongside arrivals and churn.
///
/// v3: `NetworkConfig` lost its uniform-reference-selection bool and the
/// driver queue its lane count and per-entry lane (the options behind
/// them are gone; see `docs/SNAPSHOT.md`).
///
/// v4: a run travels as its arrays — key bytes, bit lengths, end offsets,
/// postings — in place of the key table, the list table and the
/// `(key, list)` index pairs; the triple table is numbered in run order.
///
/// v5: the layout is v4's, but the postings of a gram key ascend by
/// (source length, position) — the order a run now keeps and a decoder
/// checks — so a v4 artifact's runs need not be runs of v5.
///
/// v6: the meters nothing read are gone — the network image's per-peer
/// load table, a latency profile's per-kind frontier sums, the clock's
/// high-water time and lifetime totals, the channel pool's open and ride
/// counts — and the broker's counters store the channels it opened.
///
/// v7: the driver queue has no churn event (the fault script is the one
/// way a run changes membership; event tags are 0 arrival, 1 fault, 2
/// fault-clear), and the driver image carries the fault index of the loss
/// spike in force right after its queue.
pub const SCHEMA_VERSION: u32 = 7;

/// Artifact magic: "SQO SNapshot".
pub const MAGIC: [u8; 4] = *b"SQSN";

/// Decode or restore failure. Restores either succeed completely or fail
/// with one of these — a half-decoded snapshot is never handed back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The artifact was written by a different wire-format version.
    SchemaMismatch { found: u32, expected: u32 },
    /// The input ended mid-field.
    Truncated,
    /// A tag, index, or length was out of range.
    Corrupt(&'static str),
    /// The engine config a restore was asked for holds another network
    /// config than the one the world was captured under.
    ConfigMismatch,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a snapshot artifact (bad magic)"),
            SnapError::SchemaMismatch { found, expected } => {
                write!(f, "snapshot schema v{found}, this build reads v{expected}")
            }
            SnapError::Truncated => write!(f, "snapshot truncated mid-field"),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::ConfigMismatch => {
                write!(f, "restore config does not match the captured world")
            }
        }
    }
}

impl std::error::Error for SnapError {}

impl SnapError {
    /// Process exit code for CLI consumers: a schema/format mismatch, or
    /// a world restored under another network config, exits `3` so CI can
    /// tell "incompatible artifact" from "damaged artifact" (`2`).
    pub fn exit_code(&self) -> i32 {
        match self {
            SnapError::SchemaMismatch { .. } | SnapError::BadMagic | SnapError::ConfigMismatch => 3,
            SnapError::Truncated | SnapError::Corrupt(_) => 2,
        }
    }
}

/// The engine-side world: everything [`SimilarityEngine`] owns that a
/// query can observe. Captured by [`Snapshot::capture`].
#[derive(Debug, Clone)]
pub struct WorldState {
    /// The overlay image: the live network's data half, cloned — one
    /// handle per partition onto the live run, nothing stored is copied.
    pub net: NetworkState<Posting>,
    /// Storage-overhead accounting of the initial publication.
    pub publish: PublishStats,
    /// Lifetime edit-distance comparison counter.
    pub edit_comparisons: u64,
    /// The installed probe broker's image (posting cache + channel
    /// pool), when one is installed.
    pub broker: Option<BrokerState>,
    /// The numbers and fetch spots of the world's objects: host-side, in
    /// no wire record; a decoded world numbers its records by first sight
    /// in the triple table and places their spots on its runs. A capture
    /// copies the engine's, and an engine restored from it shares them
    /// until it publishes.
    pub objects: Rc<Objects>,
}

/// One frozen simulation: the world, plus whichever mid-run images apply.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub world: WorldState,
    /// A paused concurrent-workload run ([`sqo_sim::run_driver_until`]).
    pub driver: Option<DriverCheckpoint>,
    /// A paused scale-core run ([`sqo_sim::run_serial_until`]).
    pub scale: Option<ScaleCheckpoint>,
}

impl Snapshot {
    /// Freeze the engine's world. Use after building (a warm template to
    /// [`fork`](Snapshot::fork) from) or after a completed run. Costs
    /// O(partitions + peers): the snapshot shares the engine's runs, and
    /// whichever of the two writes to a run first copies it
    /// ([`sqo_overlay::store`]), so the snapshot stays what it was.
    pub fn capture(engine: &SimilarityEngine) -> Self {
        Snapshot {
            world: WorldState {
                net: engine.network().export_state(),
                publish: *engine.publish_stats(),
                edit_comparisons: engine.edit_comparisons(),
                broker: engine.broker_state(),
                objects: Rc::new(Objects::clone(engine.objects())),
            },
            driver: None,
            scale: None,
        }
    }

    /// Freeze the world of a run paused by [`sqo_sim::run_driver_until`],
    /// together with its driver checkpoint. The engine must be the one
    /// the pause happened on — the checkpoint's virtual-time image and
    /// the world's RNG/counter state form one consistent cut.
    pub fn capture_paused(engine: &SimilarityEngine, ckpt: DriverCheckpoint) -> Self {
        let mut s = Snapshot::capture(engine);
        s.driver = Some(ckpt);
        s
    }

    /// Attach a paused scale-core run to the snapshot (the topology is
    /// re-derived from the restored network at resume time).
    pub fn with_scale(mut self, ckpt: ScaleCheckpoint) -> Self {
        self.scale = Some(ckpt);
        self
    }

    /// Rebuild a live engine from the world image. `cfg` must be the
    /// original build's config — the embedded network config is
    /// cross-checked, [`SnapError::ConfigMismatch`] where it differs, and
    /// publish/query defaults come from the caller (static configuration
    /// is not part of the artifact). The engine takes handles onto the
    /// snapshot's runs, O(partitions + peers), and copies a run when it
    /// first writes to it.
    pub fn try_restore_engine(&self, cfg: &EngineConfig) -> Result<SimilarityEngine, SnapError> {
        if &cfg.network != self.world.net.config() {
            return Err(SnapError::ConfigMismatch);
        }
        Ok(SimilarityEngine::from_parts(
            cfg.clone(),
            Network::import_state(&self.world.net),
            self.world.publish,
            self.world.edit_comparisons,
            self.world.broker.clone().map(CacheBatchBroker::from_state),
            Rc::clone(&self.world.objects),
        ))
    }

    /// [`Self::try_restore_engine`] for a caller that restores under the
    /// config it captured with.
    ///
    /// # Panics
    /// Panics with [`SnapError::ConfigMismatch`] if `cfg.network` differs
    /// from the network config the world was captured under.
    pub fn restore_engine(&self, cfg: &EngineConfig) -> SimilarityEngine {
        self.try_restore_engine(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Branch `n` independent engines off one warm world. Each fork is a
    /// full restore: same stores (shared with the snapshot and with one
    /// another until a fork writes, which the others never see), same RNG
    /// position, same broker contents — so forks driven with the same
    /// workload config produce byte-identical reports, and forks meant to
    /// diverge re-seed their workloads with
    /// [`sqo_sim::seed::derive`]`(seed, FORK_STREAM, i)`.
    pub fn fork(&self, cfg: &EngineConfig, n: usize) -> Vec<SimilarityEngine> {
        (0..n).map(|_| self.restore_engine(cfg)).collect()
    }

    /// Serialize to the versioned artifact format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = wire::Enc::default();
        e.buf.extend_from_slice(&MAGIC);
        e.put(&SCHEMA_VERSION);
        // The triple table spans the whole artifact (network runs and
        // broker-cached lists share triples): it is collected up front and
        // written before anything that references it.
        e.triples(wire::TripleTable::collect(&self.world.net, self.world.broker.as_ref()));
        e.put(self);
        e.buf
    }

    /// Decode an artifact, checking magic and schema version first.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        if bytes.len() < MAGIC.len() + 4 || bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let mut d = wire::Dec::new(&bytes[MAGIC.len()..]);
        let found = d.get()?;
        if found != SCHEMA_VERSION {
            return Err(SnapError::SchemaMismatch { found, expected: SCHEMA_VERSION });
        }
        d.triples()?;
        let snap = d.get()?;
        if !d.is_empty() {
            return Err(SnapError::Corrupt("trailing bytes after snapshot"));
        }
        Ok(snap)
    }
}
