//! Allocation budget for the operator hot path.
//!
//! The probe → aggregate → fetch pipeline reads stored postings where
//! they lie and copies only what survives the filters (see
//! `docs/PERFORMANCE.md`). Wall-clock benchmarks show the effect; this
//! test guards the cause with an exact counter: a q-gram `similar` and a
//! windowed `sim_join` on a fixed world must stay under a pinned number of
//! heap allocations. The budgets sit above what the borrowing pipeline
//! needed (117 and 1 073; 79 and 720 since a fetch ships handles, 79 and
//! 710 since a reply is one plain copy of its items, 78 and 670 since a
//! candidate is a handle) and far
//! below what the cloning pipeline it replaced needed (784 and 12 087,
//! 4.5× and 15.7× the budgets), so re-introducing a per-posting copy fails
//! here before anyone has to read a profile.
//!
//! The naive scan has a budget for the same reason. It edit-verifies every
//! stored value of the attribute against a verifier prepared once per
//! query, so its allocations follow its matches (36 here), not its
//! comparisons: a one-shot `levenshtein_bounded` per stored value, which
//! decodes both strings every time, takes 8 061.
//!
//! A range selection sorts its matches by `(oid, printed value)`; it has a
//! budget because the sort once printed both values of every *comparison*
//! (13 822 allocations for the 432 rows below), then printed each match
//! once and copied its oid into a sort key (5 671), and now compares the
//! rows where they lie, printing a number only when two oids tie.
//! `Network::range_query` once flattened the answering lists into a vector
//! and then handed the lists over themselves (5 679 → 5 671); a run is one
//! array now, and its answer lends the items in range where they lie.
//!
//! An object fetch ships handles: each fetched oid is its deduplicated
//! base postings, one buffer of 24-byte records, and the owned `Object` —
//! the oid, a field vector, a string per string value — was built only for
//! a row the caller kept: a verified match, a selection hit. Before, every
//! fetched candidate was assembled owned and every kept row cloned that
//! object once more. Select range fell from 5 671 to 3 941, top-N from
//! 1 773 to 1 391, `sim_join` from 774 to 720, q-gram `similar` from 83
//! to 79 and the naive scan from 40 to 36.
//!
//! A candidate is a handle too: stage 1.5 counts the shared grams of each
//! stored triple, keyed by slab and record, and keeps the triple's posting
//! (one refcount step) where it copied three strings per candidate; the
//! strings are copied for a verified match only. Top-N, whose distance
//! shells meet the same candidates again and again, fell from 1 391 to 841,
//! `sim_join` from 710 to 670, q-gram `similar` from 79 to 78 and the
//! naive scan from 36 to 34.
//!
//! The join's left scan reads the stored runs where they lie: no reply is
//! copied to be read, the pairs are gathered into one buffer sized up
//! front, and the sample is picked by selection, so `sim_join` fell from
//! 670 to 661, and its budget is that count.
//!
//! The message and fetch path allocates nothing per hop and nothing per
//! fetched object. A hop under virtual time picks the least backlogged of
//! its next peers by counting the ties, where it collected three lists (so
//! did every shower member's pick); a probe branch filters its survivors
//! into the task's own buffer; a fetch branch is a range of the planned
//! oids, each oid a handle on a candidate's posting rather than a copied
//! string, its key made in one buffer per branch, and an object of one
//! field holds its handle inline. Routing 200 keys with virtual time
//! installed now allocates nothing — the budget is 0 — and the operator
//! rows fell to their counts: q-gram `similar` 78 → 64, naive 34 → 31,
//! `sim_join` 661 → 510, `select_range` 3 941 → 2 640, top-N 841 → 237,
//! `similar_multi` 142 → 128 and the VQL plan 180 → 166.
//!
//! A join's left side is computed once per store state: the engine keeps
//! the last one, keyed by the attribute, the limit, the network's cache
//! epoch and the runs the scans answered, and the join's children read
//! their pairs from it by index where each copied its pair. The cold join
//! fell from 510 to 495; the same join again on the same engine scans as
//! much and takes 472, the sample's keys, sets and copies not made. Top-N
//! keeps its matches as handles on their postings, one per (oid,
//! attribute, text), and assembles only the `n` it returns, where every
//! shell built a `SimilarMatch` — strings and object — for every match:
//! 237 → 162.
//!
//! A probe branch is a range of the query's sorted probe keys, where it
//! was a list of copies of them gathered in a hash map by partition, and
//! a join child of a stored side keeps its probe outcome beside it — each
//! key's reply payload and its gram candidates — which the same child of
//! the next join replays: its legs are routed, scanned and answered alike,
//! but it collects no survivor and groups none. The rows fell to q-gram
//! `similar` 64 → 53, the cold join 495 → 445 (keeping eight outcomes
//! included), the repeated join 472 → 337, top-N 162 → 140,
//! `similar_multi` 128 → 117 and the VQL plan 166 → 155; the repeated join
//! with the probe broker on — cache hits and cache-filling replies
//! replayed alike — takes 376.
//!
//! A naive branch reads only the length window of its partition's
//! strings: the engine keeps a length-ordered view of them per (scan
//! prefix, attribute) and store state, one array per view, built at the
//! first naive branch of a cache epoch; a branch pushes its matches onto
//! the task's candidate buffer, where each matching branch collected them
//! in a vector of its own; and the task holds its two scan prefixes in an
//! array, not a vector, and no longer copies one into each fan's state.
//! The cold naive query builds its two views — seven allocations — and
//! stays at 31; the same query again on the same engine takes 27.
//!
//! Objects have numbers: every stored record carries its object's, each
//! operator keys its object cache and its dedup checks by it, and a fetch
//! charges each object's kept spot — partition, payload, whether its key
//! is a leaf — and hands on a handle of the owner's run, gathering the
//! fields only of an object it materializes. Materializing one looks its
//! key up in a buffer on the stack where a fetch made it in a `Key`: the
//! rows fell by one or two each — q-gram `similar` 53 → 52, naive 31 → 30
//! and 27 → 26, the joins 445 → 437, 337 → 329 and 376 → 368,
//! `select_range` 2 640 → 2 639, top-N 140 → 138, `similar_multi`
//! 117 → 116, the VQL plan 155 → 154 — and the 200 titles 1 080 → 1 079.
//! The numbers cost a checkpoint what they cost a world: a capture copies
//! the engine's interner and spots (312 → 316 allocations, the engine
//! restored from it shares them until it publishes), and a decoder numbers
//! its triple table's objects and places their spots (842 → 877). A
//! traced publication numbers its rows into the interner's spare room and
//! brings the spots up to date without allocating; the one allocation it
//! took more — a list of lost keys beside the list of payloads — is gone
//! (a lost key's payload is marked instead), so it stays at 688.
//!
//! A result row carries its object as that handle — the owner's run or the
//! gathered postings, one refcount step — and the owned `Object` is built
//! only when a caller reads the row; a `Filter`, a join over rows and a
//! conjunction's residual predicates read the one attribute they need
//! through the handle. No guarded call reads its rows' objects but VQL,
//! which builds each object it binds from its handle, so its row stays
//! at 154. The rest fell: `select_range` 2 639 → 1 343 (three allocations
//! a row), q-gram `similar` 52 → 49, naive 30 → 27 and 26 → 23, the joins
//! 437 → 410, 329 → 302 and 368 → 341, top-N 138 → 123 and
//! `similar_multi` 116 → 113.
//!
//! A naive view carries its strings: each entry's char count and the end
//! of its string in one text buffer beside the view's array, sized before
//! it is filled, so a branch streams its window's text and reads a posting
//! and its record only for a match. The cold naive query builds one such
//! buffer (the short-value view holds no string): 27 → 28; the same query
//! again reuses it and stays at 23. `Network::range_query` lends each
//! answering run where it lies, as a prefix retrieve does, and a range
//! selection copies only its matches, into one buffer sized to the items
//! the replies shipped: `select_range` 1 343 → 1 336.
//!
//! A reply of whole entries reads its payload off a column of cumulative
//! sizes its run builds on the first such reply since the run last
//! changed: one allocation per run, where every reply summed its items'
//! sizes. The cold join's left scan is the first reply of whole entries
//! here, so it builds its run's column: 410 → 411. With the probe broker
//! on, a cache lookup copies its key into a buffer the broker keeps, where
//! it cloned the key, and a miss clones the key once, for the entry it
//! fills, where it cloned it four times: the repeated join with the broker
//! on fell from 341 to 304, and a warm-cache q-gram `similar` — every
//! probe key a hit — from 54 to 49.
//!
//! A cache fill holds the run its reply read where it copied the items the
//! reply shipped: the entry keeps a list of one handle on the answering
//! partition's run and the range of those items. The list is one
//! allocation for every key, where the copy was one for a key with
//! postings, so the q-gram `similar` on a cold cache, which fills an entry
//! for each probe key it misses, went from 64 to 65 while it stopped
//! copying postings. A hit reads the run where it read the copy, so the
//! warm-cache `similar` and the repeated join with the broker on, whose
//! probes all hit, stay at 49 and 304.
//!
//! The write path has budgets too. A batch is generated grouped: its
//! distinct keys, each made once, and its postings with the ids of their
//! keys. `postings_for_rows` flattens that — on 100 rows (1 133 postings
//! under 469 keys) one buffer per key the batch made plus one clone for
//! every posting that is not the last under its key (1 133 in all), and 52
//! more for the batch's slab, the sort that lays it out, the gram spans,
//! the key tables and the output — nothing per triple, where every triple
//! once cost three allocations and the offsets of its grams about six more
//! (2 032 in all). One traced publish of the same rows never flattens: it
//! allocates per *distinct key* only the key's bytes, and per partition
//! reached its stretch of the batch and the merged run — four arrays each
//! — not per posting. When every posting was a store insert of its own
//! behind a network-wide key interner, and every key was the end of a
//! chain of `Key::concat`s, that call made 9 362 allocations; it made
//! 3 328 with one hash-map group per partition, 3 182 grouped by one sort,
//! 2 316 with the batch's triples in one slab, 1 676 with a key made once
//! per batch, and makes 687 now that a batch is one run, its postings in
//! one array rather than a list per key. The duplicate-rich row shows the
//! same on data whose postings outnumber its keys ten times over: 200
//! painting titles are 8 763 postings under 888 keys, and publishing them —
//! into runs the checkpoint before still holds, so each run written is
//! copied first — took 2 797 allocations with a list per key and takes
//! 1 083; a key per posting alone would be 8 763.
//!
//! A batch counts the bytes each key's postings ship as it makes them, in
//! a table beside the posting counts — reserved with them, and grown once
//! with them here: two allocations — and the traced publish reads that
//! table where it read every record again; its one comparison sort sorts
//! the keys through a table of their 16-byte heads, one more. A gram of up
//! to 7 bytes is looked up by a packed word, in a map that takes the place
//! of the one it was looked up in by text; that map is kept for longer
//! grams and allocates only for one, which these rows do not hold. The
//! write rows rose by those tables and nothing else: `postings_for_rows`
//! 1 179 → 1 181, the traced publish 688 → 691 and the 200 titles
//! 1 079 → 1 082; a checkpoint and a decode do not publish and stay put.
//!
//! Top-N, the multi-attribute conjunction and a VQL plan run the same
//! probe → aggregate → fetch pipeline under more machinery (expanding
//! shells, one child task per predicate, parse and lowering); their
//! budgets are here so that machinery stays off the per-posting path too.
//!
//! A checkpoint has one as well: `Snapshot::capture` + `restore_engine`
//! take handles onto the live runs, so on this world (128 partitions, 128
//! peers, 23 996 postings under 6 533 keys once the 100 rows are in) they
//! allocate per partition and per peer — a path, a member list and a run
//! handle each way, 314 allocations — where the deep image they replaced
//! copied every key and every list twice over: 40 078. Decoding the same
//! world from its artifact (`Snapshot::from_bytes` + `restore_engine`)
//! allocates per run — its arrays and its handle — and per partition and
//! peer, 842 allocations, where it took 13 996 while every key's postings
//! were a list of their own.
//!
//! One `#[test]` only, and a per-thread counter: nothing else allocates on
//! the counted thread, so the counts are exact and repeat. They are the
//! same in debug and release builds — the invariant walks debug builds add
//! after every merge compare stored keys where they lie — and CI runs this
//! test both ways.

use sqo::core::{AttrPredicate, BrokerConfig, EngineBuilder, Strategy};
use sqo::datasets::{bible_words, painting_titles, string_rows};
use sqo::overlay::Key;
use sqo::plan::{Query, Session};
use sqo::snap::Snapshot;
use sqo::storage::{keys, postings_for_rows, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down; a `Cell<u64>` has no destructor, but never panic in here.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the added counter bump neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (incl. reallocations) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

const SIMILAR_BUDGET: u64 = 49;
const NAIVE_BUDGET: u64 = 28;
const NAIVE_AGAIN_BUDGET: u64 = 23;
const SIM_JOIN_BUDGET: u64 = 411;
const SIM_JOIN_AGAIN_BUDGET: u64 = 302;
const SIM_JOIN_BROKER_AGAIN_BUDGET: u64 = 304;
const SIMILAR_COLD_BUDGET: u64 = 65;
const SIMILAR_WARM_BUDGET: u64 = 49;
const SELECT_RANGE_BUDGET: u64 = 1_336;
const TOP_N_BUDGET: u64 = 123;
const MULTI_BUDGET: u64 = 113;
const VQL_BUDGET: u64 = 154;
const POSTINGS_BUDGET: u64 = 1_181;
const PUBLISH_BUDGET: u64 = 691;
const TITLES_BUDGET: u64 = 1_082;
const CHECKPOINT_BUDGET: u64 = 316;
const DECODE_BUDGET: u64 = 877;
const ROUTE_BUDGET: u64 = 0;

#[test]
fn similar_and_sim_join_stay_within_their_allocation_budgets() {
    let words = bible_words(2_000, 7);
    let rows = string_rows("word", &words, "w");
    let mut engine = EngineBuilder::new().peers(128).seed(11).q(2).build_with_rows(&rows);
    let from = engine.random_peer();
    let mut session = Session::new(&mut engine, from);
    // Every guarded call is measured before any is judged, so a failure
    // shows the whole table, not the first row that broke.
    let mut measured: Vec<(&str, u64, u64)> = Vec::new();

    let similar = Query::similar(words[17].clone(), Some("word"), 1);
    let (res, n) = allocations(|| session.run(&similar).expect("a valid plan"));
    assert!(!res.rows.is_empty(), "the query string itself is stored");
    measured.push(("similar d=1, q-grams", n, SIMILAR_BUDGET));

    let naive = Query::similar(words[17].clone(), Some("word"), 1).strategy(Strategy::Naive);
    let (res, n) = allocations(|| session.run(&naive).expect("a valid plan"));
    assert!(!res.rows.is_empty(), "the query string itself is stored");
    measured.push(("similar d=1, naive", n, NAIVE_BUDGET));
    let (again, n) = allocations(|| session.run(&naive).expect("a valid plan"));
    assert_eq!(again.rows.len(), res.rows.len(), "the same scan answers the same rows");
    measured.push(("similar d=1, naive repeated on one engine", n, NAIVE_AGAIN_BUDGET));

    let join = Query::join_scan("word", Some("word"), 1).left_limit(Some(8)).window(8);
    let (res, n) = allocations(|| session.run(&join).expect("a valid plan"));
    assert!(res.rows.len() >= 8, "every left value joins at least itself");
    measured.push(("sim_join d=1, 8 lefts, window 8", n, SIM_JOIN_BUDGET));
    let (again, n) = allocations(|| session.run(&join).expect("a valid plan"));
    assert_eq!(again.rows.len(), res.rows.len(), "the same join answers the same pairs");
    measured.push(("sim_join repeated on one engine", n, SIM_JOIN_AGAIN_BUDGET));
    {
        let cache = BrokerConfig::enabled();
        let builder = EngineBuilder::new().peers(128).seed(11).q(2).cache_config(cache);
        let mut brokered = builder.build_with_rows(&rows);
        let mut session = Session::new(&mut brokered, from);
        let first = session.run(&join).expect("a valid plan");
        let (again, n) = allocations(|| session.run(&join).expect("a valid plan"));
        assert_eq!(again.rows.len(), first.rows.len(), "the same join answers the same pairs");
        measured.push(("sim_join repeated, broker on", n, SIM_JOIN_BROKER_AGAIN_BUDGET));
        let (cold, n) = allocations(|| session.run(&similar).expect("a valid plan"));
        measured.push(("similar d=1, q-grams, cold cache", n, SIMILAR_COLD_BUDGET));
        let (warm, n) = allocations(|| session.run(&similar).expect("a valid plan"));
        assert_eq!(warm.rows.len(), cold.rows.len(), "the cache answers what the owners did");
        measured.push(("similar d=1, q-grams, warm cache", n, SIMILAR_WARM_BUDGET));
    }

    let range = Query::select_range("word", Value::from("s"), Value::from("t"));
    let (res, n) = allocations(|| session.run(&range).expect("a valid plan"));
    assert_eq!(res.rows.len(), 432, "every word from \"s\" up to those starting with \"t\"");
    measured.push(("select_range, 432 rows", n, SELECT_RANGE_BUDGET));

    let top_n = Query::top_n_similar(Some("word"), 5, words[17].clone(), 3);
    let (res, n) = allocations(|| session.run(&top_n).expect("a valid plan"));
    assert_eq!(res.rows.len(), 5, "the five nearest strings");
    measured.push(("top_n_similar, 5 within d=3", n, TOP_N_BUDGET));

    let both = |d| AttrPredicate::new("word", words[17].clone(), d);
    let multi = Query::similar_multi(vec![both(1), both(2)], None);
    let (res, n) = allocations(|| session.run(&multi).expect("a valid plan"));
    assert!(!res.rows.is_empty(), "the query string satisfies both predicates");
    measured.push(("similar_multi, 2 predicates", n, MULTI_BUDGET));

    let text = format!("SELECT ?o WHERE {{ (?o,word,?v) FILTER (dist(?v,'{}') < 2) }}", words[17]);
    let options = sqo::vql::ExecOptions::default();
    let (out, n) = allocations(|| sqo::vql::run(&mut engine, from, &text, &options));
    assert!(!out.expect("a valid query").rows.is_empty(), "the query string itself is stored");
    measured.push(("vql, one similarity filter", n, VQL_BUDGET));

    let fresh = string_rows("word", &bible_words(100, 99), "x");
    let publish = engine.config().publish.clone();
    let ((postings, _), n) = allocations(|| postings_for_rows(&fresh, &publish));
    assert_eq!(postings.len(), 1_133);
    drop(postings);
    measured.push(("postings_for_rows, 100 rows", n, POSTINGS_BUDGET));

    let (stats, n) = allocations(|| engine.publish_rows_traced(&fresh, from));
    assert_eq!(stats.matches, 1_133, "postings published");
    measured.push(("publish_rows_traced, 100 rows", n, PUBLISH_BUDGET));

    let (restored, n) = allocations(|| Snapshot::capture(&engine).restore_engine(engine.config()));
    assert_eq!(restored.network().total_stored_items(), engine.network().total_stored_items());
    measured.push(("Snapshot::capture + restore_engine", n, CHECKPOINT_BUDGET));

    let bytes = Snapshot::capture(&engine).to_bytes();
    let (thawed, n) = allocations(|| {
        Snapshot::from_bytes(&bytes)
            .expect("an artifact just written")
            .restore_engine(engine.config())
    });
    assert_eq!(thawed.network().total_stored_items(), engine.network().total_stored_items());
    measured.push(("Snapshot::from_bytes + restore_engine", n, DECODE_BUDGET));

    let titles = string_rows("title", &painting_titles(200, 5), "t");
    let (stats, n) = allocations(|| engine.publish_rows_traced(&titles, from));
    assert_eq!(stats.matches, 8_763, "postings published, several times the distinct keys");
    measured.push(("publish_rows_traced, 200 titles", n, TITLES_BUDGET));

    // Virtual time installed: every hop picks the least backlogged of its
    // equivalent next peers, and so does every shower member.
    sqo::sim::install(&mut engine, sqo::sim::SimConfig::default());
    let keys: Vec<Key> = (0..200).map(|i| keys::oid_key(&format!("w:{i}"))).collect();
    let hops_before = engine.network().metrics().route_hops;
    let net = engine.network_mut();
    let (routed, n) = allocations(|| keys.iter().filter(|k| net.route(from, k).is_ok()).count());
    let hops = engine.network().metrics().route_hops - hops_before;
    assert_eq!(routed, keys.len(), "every key routes");
    assert!(hops > keys.len() as u64, "most keys take hops ({hops} for {routed})");
    measured.push(("route 200 keys with virtual time installed", n, ROUTE_BUDGET));

    let table: Vec<String> = measured
        .iter()
        .map(|(call, n, budget)| {
            let verdict = if n <= budget { "ok" } else { "OVER" };
            format!("{call}: {n} allocations, budget {budget} — {verdict}")
        })
        .collect();
    println!("{}", table.join("\n"));
    assert!(measured.iter().all(|(_, n, budget)| n <= budget), "\n{}", table.join("\n"));
}
