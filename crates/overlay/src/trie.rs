//! P-Grid trie construction: deriving a balanced set of key-space partitions
//! from the data distribution.
//!
//! The P-Grid construction algorithm (Aberer et al., VLDB 2005 \[2\]) lets
//! peers bilaterally split key-space regions until the *data load* per
//! partition is balanced — crucially, the trie adapts to the data
//! distribution, so skewed data still yields uniform load ("Due to P-Grid's
//! load-balancing we achieve a reasonable uniform distribution of data items
//! among peers regardless of the actual data distribution", §6).
//!
//! The simulator reproduces the *outcome* of that process with a
//! deterministic greedy algorithm: starting from the root partition, always
//! split the partition currently holding the most data items, until the
//! requested number of partitions is reached (or no partition can be split
//! further). The resulting leaf paths form a complete prefix-free cover of
//! the key space — the invariant Algorithm 1's termination proof relies on.
//!
//! The splitter works on the *distinct* data keys, each weighing the items
//! published under it: a partition is a stretch of the sorted distinct
//! keys, its load a difference of two prefix sums, its split point one
//! bisection. A world has several times fewer keys than postings (every
//! row repeats the grams of its attribute's name, values share grams), and
//! the bulk load that calls this has them grouped already.
//!
//! The split rule spends a unit of budget on every split, also one whose
//! sibling receives no key (every key of a family shares its leading bits),
//! so a cover has leaves that hold nothing. The splitter hands each leaf's
//! load to the network, which gives peers only to the leaves that hold
//! data: a leaf with no load becomes a peerless *gap* (see
//! [`crate::network`]).

use crate::gallop;
use crate::key::{Key, KeyRef};
use std::collections::BinaryHeap;

/// Upper bound on partition path depth — a safety net only. Real splitting
/// stops earlier (single-key or duplicate-only partitions freeze), but the
/// cap must exceed the longest derivable key: index-family tag (8) + attr
/// fragment (≤ 264) + value fragment (≤ 264). A too-small cap silently
/// freezes heavy partitions whose keys share a long family prefix, wrecking
/// load balance.
pub const MAX_PATH_BITS: usize = 600;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Candidate {
    load: usize,
    /// Tie-break: prefer splitting shallower partitions (keeps trie compact).
    depth_neg: isize,
    path: Key,
    /// Range of the sorted distinct keys covered by this partition.
    range: (usize, usize),
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.load, self.depth_neg, &other.path).cmp(&(other.load, other.depth_neg, &self.path))
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Build a complete, prefix-free set of partition paths adapted to `keys`
/// — the distinct data keys, strictly ascending, each with the number of
/// items published under it — with at most `target` partitions, and the
/// load of each.
///
/// A partition's load is the number of items under its keys, so a popular
/// key weighs what its postings weigh; the split points are found among
/// the distinct keys, which a world has several times fewer of than
/// postings. A key shorter than a partition's path counts towards the first
/// partition it covers ([`find_partition`]'s choice). A partition whose
/// load is 0 holds no key: the network leaves it peerless, a gap.
///
/// Fewer than `target` partitions are returned when splitting further cannot
/// separate data (every partition holds ≤ 1 item or one key, or
/// [`MAX_PATH_BITS`] is reached) — the surplus peers replicate the loaded
/// partitions instead, exactly as in P-Grid.
///
/// The returned paths are sorted lexicographically, which (because they are
/// prefix-free and complete) is also their key-space order; the loads come
/// in the same order.
///
/// The keys are read where they lie — a bulk load splits on views of the
/// keys it is about to store, not on copies.
///
/// # Panics
/// Panics when `target` is 0 or the keys do not ascend strictly.
pub fn build_partitions(keys: &[(KeyRef<'_>, usize)], target: usize) -> (Vec<Key>, Vec<usize>) {
    assert!(target >= 1, "at least one partition required");
    assert!(keys.windows(2).all(|w| w[0].0 < w[1].0), "distinct keys, ascending");
    // Items under the keys before each one: a range's load is a difference.
    let before: Vec<usize> = std::iter::once(0)
        .chain(keys.iter().scan(0, |sum, (_, items)| {
            *sum += items;
            Some(*sum)
        }))
        .collect();

    let mut heap = BinaryHeap::new();
    heap.push(Candidate {
        load: before[keys.len()],
        depth_neg: 0,
        path: Key::empty(),
        range: (0, keys.len()),
    });
    let mut done: Vec<(Key, usize)> = Vec::new();

    while heap.len() + done.len() < target {
        let Some(top) = heap.pop() else { break };
        let (lo, hi) = top.range;
        if top.load <= 1 || top.path.len() >= MAX_PATH_BITS || hi - lo == 1 {
            // Cannot usefully split (single item, one key however loaded —
            // e.g. a popular q-gram posted by thousands of strings — or
            // depth cap); freeze it. Surplus peers replicate instead.
            done.push((top.path, top.load));
            continue;
        }
        let depth = top.path.len();
        // Keys in [lo, hi) all extend `path` (or are shorter — counted left).
        // Find the first key whose bit at `depth` is 1. Keys shorter than
        // depth+1 bits sort before both children's data; attribute them to
        // the 0-child (they are replicated into all covered partitions at
        // insert time anyway, this only steers the split heuristic).
        let split = keys[lo..hi].partition_point(|(k, _)| k.len() <= depth || !k.bit(depth)) + lo;
        let child0 = top.path.child(false);
        let child1 = top.path.child(true);
        heap.push(Candidate {
            load: before[split] - before[lo],
            depth_neg: -(child0.len() as isize),
            path: child0,
            range: (lo, split),
        });
        heap.push(Candidate {
            load: before[hi] - before[split],
            depth_neg: -(child1.len() as isize),
            path: child1,
            range: (split, hi),
        });
    }

    let mut leaves: Vec<(Key, usize)> =
        done.into_iter().chain(heap.into_iter().map(|c| (c.path, c.load))).collect();
    leaves.sort_unstable();
    leaves.into_iter().unzip()
}

/// The load of each partition of the sorted cover `paths` under `keys` —
/// the distinct data keys ascending, each with its item count — counted as
/// [`build_partitions`] counts it: a key towards the partition
/// [`find_partition`] names. What an explicit cover is dealt its peers by.
pub fn partition_loads(paths: &[Key], keys: &[(KeyRef<'_>, usize)]) -> Vec<usize> {
    let mut loads = vec![0; paths.len()];
    for (key, items) in keys {
        loads[locate(paths, *key)] += items;
    }
    loads
}

/// Check that `paths` is a complete prefix-free cover of the key space:
/// every infinite bit string has exactly one of the paths as a prefix.
/// Used by tests and debug assertions.
pub fn is_complete_cover(paths: &[Key]) -> bool {
    if paths.is_empty() {
        return false;
    }
    // Sort, then collapse sibling pairs with a stack: a prefix-free set is
    // a complete cover iff repeated collapsing of adjacent siblings
    // (`π·0`, `π·1` → `π`) reduces the sorted sequence to the single root.
    // Exact for arbitrary depths (no 2^-len arithmetic to overflow).
    let mut sorted: Vec<Key> = paths.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0].is_prefix_of(&w[1]) {
            return false; // prefix violation (covers duplicates too)
        }
    }
    let mut stack: Vec<Key> = Vec::with_capacity(sorted.len());
    for p in sorted {
        stack.push(p);
        while stack.len() >= 2 {
            let a = &stack[stack.len() - 2];
            let b = &stack[stack.len() - 1];
            let len = a.len();
            let siblings = len == b.len()
                && len > 0
                && a.common_prefix_len(b) == len - 1
                && !a.bit(len - 1)
                && b.bit(len - 1);
            if !siblings {
                break;
            }
            let parent = a.prefix(len - 1);
            stack.pop();
            stack.pop();
            stack.push(parent);
        }
    }
    stack.len() == 1 && stack[0].is_empty()
}

/// Locate the partition responsible for `key` among sorted, complete,
/// prefix-free `paths`: the unique path that is a prefix of `key`, or — when
/// `key` is shorter than the local trie depth — the *first* path extending
/// `key` (the caller fans out to the remaining ones for subtree queries).
pub fn find_partition(paths: &[Key], key: &Key) -> usize {
    locate(paths, key.as_ref())
}

/// [`find_partition`] for a key whose partition is `lo` or a later one:
/// how ascending keys are located one after another, each from the
/// previous key's partition. The search gallops from `lo`, so a stretch of
/// keys in one partition costs two comparisons a key, and a step to the
/// next partition the log of its distance. When the path found is not
/// prefix-related to the key — a key shorter than the trie, past the
/// partition before its first extension — the lookup is [`find_partition`]'s.
///
/// # Panics
/// Panics when `lo` is out of range. Debug builds check the answer against
/// [`find_partition`], which a `lo` past the key's partition fails.
pub fn find_partition_from(paths: &[Key], key: KeyRef<'_>, lo: usize) -> usize {
    let at = lo + gallop(&paths[lo..], |p| p.as_ref() <= key);
    // The last path at or before the key; `paths[lo]` when even that one
    // lies after it (the previous key was shorter than the trie).
    let last = at.saturating_sub(1).max(lo);
    let path = paths[last].as_ref();
    let found =
        if path.is_prefix_of(key) || key.is_prefix_of(path) { last } else { locate(paths, key) };
    debug_assert_eq!(found, locate(paths, key), "partition {lo} lies past key {key}");
    found
}

/// [`find_partition`] on a borrowed key.
fn locate(paths: &[Key], key: KeyRef<'_>) -> usize {
    debug_assert!(!paths.is_empty());
    // Binary search by the interval order: the responsible partition is the
    // last one whose path, as interval start, is <= key.
    let idx = paths.partition_point(|p| p.as_ref() <= key);
    let candidate = paths[idx.saturating_sub(1)].as_ref();
    if candidate.is_prefix_of(key) || key.is_prefix_of(candidate) {
        return idx.saturating_sub(1);
    }
    // `key` may sort before its covering partition's path only when key is a
    // proper prefix of a later path ("0" vs partitions "00","01",…): pick the
    // first extension.
    let ext = paths.partition_point(|p| p.as_ref() < key);
    debug_assert!(
        ext < paths.len() && key.is_prefix_of(paths[ext].as_ref()),
        "complete cover violated for key {key}"
    );
    ext.min(paths.len() - 1)
}

/// All partitions whose path extends (or equals / is extended by) `key` —
/// the subtree a prefix query must fan out to. Returns a contiguous index
/// range into the sorted `paths`.
pub fn subtree_range(paths: &[Key], key: KeyRef<'_>) -> (usize, usize) {
    let start =
        paths.partition_point(|p| p.as_ref().cmp_extended(true, key) == std::cmp::Ordering::Less);
    // The prefix-related block is contiguous: it is either the run of
    // paths extending `key`, or (when `key` is deeper than the trie) the
    // single path that is a prefix of `key` — prefix-freeness rules out a
    // mix. Binary-search its end instead of walking it: routing-table
    // construction calls this once per (peer, level), and at shallow
    // levels the complementary subtree spans a large fraction of all
    // partitions, which made a linear walk quadratic in network size.
    let end = start
        + paths[start..]
            .partition_point(|p| key.is_prefix_of(p.as_ref()) || p.as_ref().is_prefix_of(key));
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_str;

    fn keys_of(words: &[&str]) -> Vec<Key> {
        words.iter().map(|w| hash_str(w)).collect()
    }

    /// The distinct keys ascending, each with how often it occurs.
    fn views(keys: &[Key]) -> Vec<(KeyRef<'_>, usize)> {
        let mut sorted: Vec<KeyRef<'_>> = keys.iter().map(Key::as_ref).collect();
        sorted.sort_unstable();
        sorted.chunk_by(|a, b| a == b).map(|same| (same[0], same.len())).collect()
    }

    #[test]
    fn single_partition_is_root() {
        let keys = keys_of(&["a", "b", "c"]);
        let (paths, loads) = build_partitions(&views(&keys), 1);
        assert_eq!(paths, vec![Key::empty()]);
        assert_eq!(loads, vec![3]);
        assert!(is_complete_cover(&paths));
    }

    #[test]
    fn splits_reach_target_and_cover() {
        let words: Vec<String> = (0..200).map(|i| format!("word{i:03}")).collect();
        let keys: Vec<Key> = words.iter().map(|w| hash_str(w)).collect();
        for target in [1, 2, 3, 7, 16, 64] {
            let (paths, _) = build_partitions(&views(&keys), target);
            assert_eq!(paths.len(), target, "target {target}");
            assert!(is_complete_cover(&paths), "cover violated at target {target}");
        }
    }

    #[test]
    fn saturates_when_data_cannot_split() {
        // Two distinct keys can support at most a few meaningful partitions;
        // the builder must stop instead of looping.
        let keys = keys_of(&["aaaa", "zzzz"]);
        let (paths, _) = build_partitions(&views(&keys), 64);
        assert!(paths.len() <= 64);
        assert!(is_complete_cover(&paths));
        // It still made *some* progress beyond the root.
        assert!(paths.len() >= 2);
    }

    #[test]
    fn skewed_data_still_balances_load() {
        // Zipf-like skew: cluster c_i holds ~1000/i keys, clusters start at
        // varied letters (realistic text data: heads are popular but
        // prefixes diverge early).
        let mut words: Vec<String> = Vec::new();
        for (i, head) in ["ma", "se", "tr", "wi", "be", "co", "de", "fa"].iter().enumerate() {
            for j in 0..1000 / (i + 1) {
                words.push(format!("{head}{j:04}"));
            }
        }
        let keys: Vec<Key> = words.iter().map(|w| hash_str(w)).collect();
        let max_load = |target: usize, keys: &[Key]| {
            let (paths, _) = build_partitions(&views(keys), target);
            assert!(is_complete_cover(&paths), "cover violated at target {target}");
            paths.iter().map(|p| keys.iter().filter(|k| p.is_prefix_of(k)).count()).max().unwrap()
        };
        // The splitter must *adapt*: quadrupling the partition budget has to
        // shrink the heaviest partition substantially. (Absolute balance is
        // data dependent — order-preserving hashing wastes splits on shared
        // ASCII prefixes, an imbalance the paper explicitly accepts in §2 —
        // but adaptivity is the contract.)
        let coarse = max_load(32, &keys);
        let fine = max_load(256, &keys);
        assert!(
            fine * 3 <= coarse,
            "splitting budget 32→256 only improved max load {coarse} → {fine}"
        );
    }

    #[test]
    fn deep_shared_prefix_consumes_split_budget_gracefully() {
        // Pathological skew: 900 keys share a 24-bit prefix. With only 32
        // partitions the greedy splitter spends its budget descending the
        // shared prefix — the documented P-Grid behaviour (the trie gets
        // deep, expected search cost stays logarithmic via randomized
        // complementary refs). The invariants that must survive: a complete
        // cover, the requested partition count, termination. The siblings
        // the descent leaves behind hold nothing, and their load says so:
        // those are the gaps the network deals no peer.
        let mut words: Vec<String> = (0..900).map(|i| format!("aaa{i:04}")).collect();
        words.extend((0..100).map(|i| format!("z{i:03}")));
        let keys: Vec<Key> = words.iter().map(|w| hash_str(w)).collect();
        let (paths, loads) = build_partitions(&views(&keys), 32);
        assert_eq!(paths.len(), 32);
        assert!(is_complete_cover(&paths));
        let max_depth = paths.iter().map(Key::len).max().unwrap();
        assert!(max_depth >= 24, "splitter should have chased the heavy cluster");
        assert_eq!(loads.iter().sum::<usize>(), keys.len());
        for (path, load) in paths.iter().zip(&loads) {
            assert_eq!(*load, keys.iter().filter(|k| path.is_prefix_of(k)).count(), "{path}");
        }
        assert!(loads.contains(&0), "the descent left empty siblings");
        assert_eq!(loads, partition_loads(&paths, &views(&keys)));
    }

    #[test]
    fn find_partition_locates_prefix_owner() {
        let keys: Vec<Key> = (0..64).map(|i| hash_str(&format!("k{i:02}"))).collect();
        let (paths, _) = build_partitions(&views(&keys), 8);
        for k in &keys {
            let idx = find_partition(&paths, k);
            assert!(paths[idx].is_prefix_of(k), "partition {} does not own key {}", paths[idx], k);
        }
    }

    #[test]
    fn find_partition_short_key() {
        let paths = vec![Key::parse("00"), Key::parse("010"), Key::parse("011"), Key::parse("1")];
        assert!(is_complete_cover(&paths));
        // "0" is shorter than the trie: the first extending partition wins.
        assert_eq!(find_partition(&paths, &Key::parse("0")), 0);
        assert_eq!(find_partition(&paths, &Key::parse("01")), 1);
        assert_eq!(find_partition(&paths, &Key::parse("0111")), 2);
        assert_eq!(find_partition(&paths, &Key::parse("10")), 3);
        assert_eq!(find_partition(&paths, &Key::empty()), 0);
    }

    #[test]
    fn subtree_range_covers_prefix_queries() {
        let paths = vec![Key::parse("00"), Key::parse("010"), Key::parse("011"), Key::parse("1")];
        assert_eq!(subtree_range(&paths, Key::parse("0").as_ref()), (0, 3));
        assert_eq!(subtree_range(&paths, Key::parse("01").as_ref()), (1, 3));
        assert_eq!(subtree_range(&paths, Key::parse("011").as_ref()), (2, 3));
        assert_eq!(subtree_range(&paths, Key::parse("0110").as_ref()), (2, 3));
        assert_eq!(subtree_range(&paths, Key::empty().as_ref()), (0, 4));
        assert_eq!(subtree_range(&paths, Key::parse("1").as_ref()), (3, 4));
    }

    #[test]
    fn cover_checker_rejects_bad_sets() {
        assert!(!is_complete_cover(&[Key::parse("0")])); // missing "1"
        assert!(!is_complete_cover(&[Key::parse("0"), Key::parse("0"), Key::parse("1")]));
        assert!(!is_complete_cover(&[
            Key::parse("0"),
            Key::parse("01"), // prefix violation
            Key::parse("1"),
        ]));
        assert!(is_complete_cover(&[Key::empty()]));
    }
}
