//! Robustness under churn: P-Grid's structural replication and redundant
//! routing references keep similarity queries working while peers die
//! (§2: "the algorithm always terminates successfully, if … at least one
//! peer in each partition is reachable").

use sqo::core::{EngineBuilder, SimilarityEngine, Strategy};
use sqo::datasets::{bible_words, string_rows};
use sqo::overlay::{Key, Network, PeerId, ReplicationPolicy};
use sqo::plan::{Query, Session};
use sqo::storage::{postings_for_rows, Posting};

/// The strings `Similar(query, word, d)` by q-grams matches from a random
/// peer.
fn similar(e: &mut SimilarityEngine, query: &str, d: usize) -> Vec<String> {
    let from = e.random_peer();
    let q = Query::similar(query, Some("word"), d).strategy(Strategy::QGrams);
    let res = Session::new(e, from).run(&q).expect("a similarity query plans");
    res.rows.into_iter().map(|r| r.value.to_string()).collect()
}

#[test]
fn similarity_queries_survive_moderate_churn() {
    let words = bible_words(1_000, 55);
    let rows = string_rows("word", &words, "w");
    let mut e = EngineBuilder::new()
        .peers(96)
        .replication(4)
        .refs_per_level(3)
        .q(2)
        .seed(12)
        .build_with_rows(&rows);

    // Baseline answers.
    let queries: Vec<&String> = words.iter().step_by(83).collect();
    let mut baseline = Vec::new();
    for q in &queries {
        let mut m = similar(&mut e, q, 1);
        m.sort_unstable();
        baseline.push(m);
    }

    // Kill a quarter of the network.
    e.network_mut().fail_random_fraction(0.25);

    let mut complete = 0usize;
    for (q, base) in queries.iter().zip(&baseline) {
        let mut m = similar(&mut e, q, 1);
        m.sort_unstable();
        if &m == base {
            complete += 1;
        }
    }
    assert!(
        complete as f64 >= 0.85 * queries.len() as f64,
        "only {complete}/{} queries returned complete answers under 25% churn",
        queries.len()
    );
}

#[test]
fn no_replication_means_data_loss_under_churn() {
    // Negative control: with replication 1, killing peers must lose data —
    // the simulator does not silently cheat. Replication 1 is a floor: the
    // 53 peers the 11 partitions holding data leave over replicate them by
    // load (one to nine members each), so it takes 60 % churn to empty a
    // partition, where 40 % did when every partition had one member.
    let words = bible_words(500, 66);
    let rows = string_rows("word", &words, "w");
    let mut e = EngineBuilder::new().peers(64).replication(1).q(2).seed(13).build_with_rows(&rows);
    e.network_mut().fail_random_fraction(0.6);

    let mut lost = 0usize;
    let queries: Vec<&String> = words.iter().step_by(29).collect();
    for q in &queries {
        if !similar(&mut e, q, 0).iter().any(|m| m == *q) {
            lost += 1;
        }
    }
    assert!(lost > 0, "60% churn with no replication must lose at least one exact lookup");
}

#[test]
fn failed_routes_are_accounted() {
    // A world of many small partitions: every partition holding data has
    // surplus members beside its one replica, and half the network must
    // die before some partitions die with it. (300 words on 32 peers put
    // their data on 3 partitions of 8 to 15 members, which no 50 % wave
    // empties.)
    let words = bible_words(2_000, 21);
    let rows = string_rows("word", &words, "w");
    let mut e = EngineBuilder::new()
        .peers(128)
        .replication(1)
        .refs_per_level(1)
        .q(2)
        .seed(14)
        .build_with_rows(&rows);
    e.network_mut().fail_random_fraction(0.5);
    e.network_mut().reset_metrics();
    for q in words.iter().step_by(17) {
        similar(&mut e, q, 1);
    }
    assert!(
        e.network().metrics().failed_routes > 0,
        "heavy churn with single refs must produce observable routing failures"
    );
}

/// Churn, repair and publication interleaved: after every step the runs
/// still ascend, every key sits in a partition whose path it is
/// prefix-related to and peer → partition agrees with partition → peers —
/// and a recruit answers with what was published after it moved.
#[test]
fn invariants_hold_through_churn_repair_and_publication() {
    // Replication 1: 16 partitions hold data, with one to a few members
    // each, so 20 % waves push some below the policy's three. (Replication
    // 4 puts this world's data on 3 partitions of 25 to 46 members.)
    let words = bible_words(700, 31);
    let rows = string_rows("word", &words, "w");
    let mut e = EngineBuilder::new()
        .peers(96)
        .replication(1)
        .refs_per_level(3)
        .q(2)
        .seed(15)
        .build_with_rows(&rows[..400]);
    assert_eq!(e.network().check_invariants(), Ok(()));

    let policy = ReplicationPolicy::at_least(3);
    let homes = |net: &Network<Posting>| -> Vec<usize> {
        (0..net.peer_count()).map(|p| net.peer_partition(PeerId(p as u32))).collect()
    };
    let (mut recruited, mut answered) = (0, 0);
    for wave in rows[400..].chunks(100) {
        e.network_mut().fail_random_fraction(0.2);
        let before = homes(e.network());
        let report = e.network_mut().repair_epoch(&policy);
        // Only partitions holding data have members to heal, so a recruit
        // always copies something.
        assert!(report.recruited == 0 || report.bytes_copied > 0, "{report:?}");
        recruited += report.recruited;
        assert_eq!(e.network().check_invariants(), Ok(()), "after repair");
        let from = e.random_peer();
        e.publish_rows_traced(wave, from);
        assert_eq!(e.network().check_invariants(), Ok(()), "after a publish into the repaired net");

        // A query entered at a recruit, for a key of its new partition, is
        // answered on the spot — with the posting the wave just stored.
        let (published, _) = postings_for_rows(wave, &e.config().publish);
        let after = homes(e.network());
        for recruit in (0..after.len()).filter(|p| before[*p] != after[*p]) {
            let owned =
                |key: &Key| e.network().subtree_of(key) == (after[recruit], after[recruit] + 1);
            let Some((key, posting)) = published.iter().find(|(key, _)| owned(key)) else {
                continue;
            };
            let hops = e.network().metrics().route_hops;
            let list = e.network_mut().retrieve_list(PeerId(recruit as u32), key).expect("alive");
            assert_eq!(e.network().metrics().route_hops, hops, "the recruit is responsible");
            assert!(list.contains(posting), "p{recruit} lacks what was published after it moved");
            answered += 1;
        }

        e.network_mut().revive_random_fraction(0.1);
        assert_eq!(e.network().check_invariants(), Ok(()), "after revivals");
    }
    assert!(recruited > 0, "three 20 % waves must leave something to repair");
    assert!(answered > 0, "no recruit moved into a partition a wave published into");
}
