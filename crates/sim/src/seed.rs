//! Seed-stream derivation, in one place.
//!
//! The driver and the benches need many independent RNG streams from one
//! user-facing `seed`: one per simulated client, one per fork of a warm
//! checkpoint, and so on. Historically each site mixed its own ad-hoc
//! constant inline (`seed ^ (0x00C1_1E47 + c).wrapping_mul(0x9E37)` in the
//! driver, a cousin in the scale core); this module is the single,
//! documented home for that mixing.
//!
//! [`derive()`] is intentionally bit-exact with the old inline formula —
//! every pinned artifact (the `BENCH_*.json` golden files, snapshot
//! round-trips) depends on client streams staying put. The heavy stateless
//! per-event hash used by the million-peer scale core lives here too as
//! [`mix`]; it needs stronger diffusion than `derive` because its outputs
//! feed latencies directly rather than seeding a full xoshiro state.
//!
//! Stream namespaces are disambiguated by a per-purpose constant, not by
//! argument order: `derive(seed, CLIENT_STREAM, 3)` (client #3) can never
//! collide with `derive(seed, FORK_STREAM, 3)` (fork #3).

/// Stream namespace for per-client driver RNGs (arrival jitter, workload
/// string choice, think-time sampling).
pub const CLIENT_STREAM: u64 = 0x00C1_1E47;

/// Stream namespace for forked runs branched off one warm checkpoint:
/// fork `i` of a snapshot taken under `seed` runs under
/// `derive(seed, FORK_STREAM, i)` when the caller asks for divergence.
pub const FORK_STREAM: u64 = 0x00F0_524B;

/// Stream namespace for fault-plan scripting (event-time jitter in
/// [`FaultPlan::periodic`](crate::FaultPlan::periodic)): period `k` of a
/// plan built under `seed` jitters under `derive(seed, FAULT_STREAM, k)`.
/// Distinct from the client and fork namespaces so the same user seed
/// never phase-locks fault times to arrival times.
pub const FAULT_STREAM: u64 = 0x00FA_017E;

/// Derive the seed for stream `idx` of namespace `stream` from the
/// user-facing `seed`.
///
/// Bit-exact with the historical inline formula
/// `seed ^ (stream + idx).wrapping_mul(0x9E37)` — do not "improve" the
/// mixing here; pinned artifacts depend on it. The multiplier is a
/// golden-ratio prefix (`0x9E37…`), enough to spread consecutive indices
/// across the seed space before the xor; the derived value seeds a full
/// xoshiro256++ state (SplitMix64 expansion), which supplies the real
/// avalanche.
#[inline]
pub fn derive(seed: u64, stream: u64, idx: u64) -> u64 {
    seed ^ stream.wrapping_add(idx).wrapping_mul(0x9E37)
}

/// Stateless per-event hash used by the million-peer scale core: a
/// SplitMix64-style finalizer over `(seed, qid, step, salt)`. Unlike
/// [`derive()`] its output is consumed *directly* (link jitter, key choice,
/// arrival offsets), so it needs full 64-bit avalanche.
///
/// Bit-exact with the former private `mix` in `scale.rs` — the `ScaleOutcome`
/// checksum pins it.
#[inline]
pub fn mix(seed: u64, qid: u32, step: u32, salt: u64) -> u64 {
    let mut z = seed
        ^ (qid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (step as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ salt.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The driver derived client seeds inline for seven PRs; pinned sweep
    /// artifacts notice a single flipped bit. Pin `derive` to the exact
    /// legacy expression.
    #[test]
    fn derive_matches_the_legacy_inline_formula() {
        for seed in [0u64, 42, 0xDEAD_BEEF, u64::MAX] {
            for c in 0..64u64 {
                let legacy = seed ^ (0x00C1_1E47u64 + c).wrapping_mul(0x9E37);
                assert_eq!(derive(seed, CLIENT_STREAM, c), legacy, "seed={seed} c={c}");
            }
        }
    }

    /// `mix` feeds latencies, key choices and arrival offsets directly;
    /// the `ScaleOutcome` checksum pins its exact output. Pin the formula
    /// against the literal legacy expression it replaced.
    #[test]
    fn mix_matches_the_legacy_scale_core_formula() {
        let legacy = |seed: u64, qid: u32, step: u32, salt: u64| {
            let mut z = seed
                ^ (qid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (step as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ salt.wrapping_mul(0x94D0_49BB_1331_11EB);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for (seed, qid, step, salt) in
            [(7u64, 0u32, 0u32, 0x1111u64), (7, 3, 9, 0xA11C), (42, 1000, 1 << 20, 0xF0)]
        {
            assert_eq!(mix(seed, qid, step, salt), legacy(seed, qid, step, salt));
        }
    }

    #[test]
    fn streams_do_not_collide_across_namespaces() {
        let seed = 1234;
        for i in 0..256 {
            assert_ne!(derive(seed, CLIENT_STREAM, i), derive(seed, FORK_STREAM, i));
            assert_ne!(derive(seed, CLIENT_STREAM, i), derive(seed, FAULT_STREAM, i));
            assert_ne!(derive(seed, FORK_STREAM, i), derive(seed, FAULT_STREAM, i));
        }
    }

    #[test]
    fn consecutive_indices_yield_distinct_seeds() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            assert!(seen.insert(derive(7, CLIENT_STREAM, i)), "collision at idx {i}");
        }
    }
}
