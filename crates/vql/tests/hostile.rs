//! Hostile VQL. Every query text the other VQL tests run is mutated the
//! way the snapshot decoder's mutation loop mutates an artifact — a bit
//! flipped, the tail cut off, a stretch overwritten with another stretch of
//! the same text or with noise — and read back as UTF-8, lossily. Each
//! mutant is parsed and planned, then run on a 64-peer engine: the
//! outcome is an answer or an error, never a panic.

use sqo_core::EngineBuilder;
use sqo_storage::triple::{Row, Value};
use sqo_vql::{parse, plan, run, ExecOptions, VqlError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The worlds of the other VQL tests in one: a car market with its
/// dealers (one with a typo'd id attribute) and two objects of `x`/`y`.
fn world() -> Vec<Row> {
    let car = |oid: &str, name: &str, hp: i64, price: i64, dealer: &str| {
        Row::new(
            oid,
            [
                ("name", Value::from(name)),
                ("hp", Value::from(hp)),
                ("price", Value::from(price)),
                ("dealer", Value::from(dealer)),
            ],
        )
    };
    vec![
        Row::new("dlr:1", [("dlrid", "D001"), ("name", "autohaus nord"), ("addr", "1 main st")]),
        Row::new("dlr:2", [("dlrjd", "D002"), ("name", "autohaus sued"), ("addr", "2 high st")]),
        car("car:1", "BMW 320d", 190, 41_000, "D001"),
        car("car:2", "BMW M3", 480, 95_000, "D001"),
        car("car:3", "BWM 318i", 156, 31_000, "D002"),
        car("car:4", "Audi A4", 204, 45_000, "D002"),
        car("car:5", "Audi TT", 245, 52_000, "D001"),
        Row::new("a:1", [("x", Value::from(1))]),
        Row::new("a:2", [("x", Value::from(2)), ("y", Value::from(20))]),
    ]
}

/// `dist(..)` nested `depth` deep.
fn nested(depth: usize) -> String {
    let (open, close) = ("dist(".repeat(depth), ",1)".repeat(depth));
    format!("SELECT ?h WHERE {{ (?o,hp,?h) FILTER ({open}?h{close} < 3) }}")
}

/// Every query text of `end_to_end.rs` and `properties.rs`, and those of
/// the regression cases below.
fn texts() -> Vec<String> {
    let dealers = |d: u32| {
        format!(
            "SELECT ?n,?h,?p,?dn,?a WHERE {{ (?x,dealer,?d) (?y,dlrid,?d) (?x,name,?n) \
             (?x,hp,?h) (?x,price,?p) (?y,addr,?a) (?y,name,?dn) FILTER (?p < 50000) \
             FILTER (dist(?n,'BMW') < {d})}} ORDER BY ?h DESC LIMIT 5"
        )
    };
    let page = |off: u32| {
        format!("SELECT ?n,?h WHERE {{ (?o,name,?n) (?o,hp,?h) }} ORDER BY ?h DESC LIMIT 2 OFFSET {off}")
    };
    let bound = |b: &str| format!("SELECT ?h WHERE {{ (?o,hp,?h) FILTER (dist(?h,200) <= {b}) }}");
    let mut texts = vec![
        "SELECT ?n,?h,?p WHERE { (?o,name,?n) (?o,hp,?h) (?o,price,?p) FILTER (?p < 50000) } \
         ORDER BY ?h DESC LIMIT 5"
            .to_string(),
        dealers(2),
        dealers(7),
        "SELECT ?n,?p,?dn,?ad WHERE { (?d,?a,?id) (?d,name,?dn) (?d,addr,?ad) (?o,name,?n) \
         (?o,price,?p) (?o,dealer,?cid) FILTER (dist(?id,?cid) < 2) \
         FILTER (dist(?a,'dlrid') < 3)} ORDER BY ?a NN 'dlrid'"
            .to_string(),
        "SELECT ?h WHERE { ('car:2',hp,?h) }".to_string(),
        "SELECT ?x WHERE { (?x,dealer,'D002') }".to_string(),
        page(0),
        page(2),
        "SELECT ?n WHERE { (?o,name,?n) (?o,hp,?h) FILTER (dist(?h,200) <= 14) }".to_string(),
        bound("-1"),
        bound("-0.5"),
        bound(&format!("1{}.0", "0".repeat(400))),
        "SELECT ?h WHERE { (?o,hp,?h) FILTER (dist(?h,190) <= 0) }".to_string(),
        "SELECT ?v,?w WHERE { (?s,x,?v) (?s,y,?w) }".to_string(),
        "SELECT ?v WHERE { (?s,?a,?v) }".to_string(),
        "SELECT ?nope WHERE { (?s,name,?n) }".to_string(),
        "SELEC ?n".to_string(),
        "SELECT ?n WHERE { (?o,name,?n) FILTER (dist(?n,'Audi A4') < 2) }".to_string(),
        "SELECT ?x WHERE { (?x,a,?v) } ORDER BY ?v DESC LIMIT 3".to_string(),
        "select ?x where { (?x,a,?v) } order by ?v desc limit 3".to_string(),
        "SELECT ?n WHERE { (?o,name,?n) FILTER (dist(?n,'BMW 320d') < 9223372036854775807) }"
            .to_string(),
        nested(sqo_vql::parser::MAX_DIST_DEPTH + 1),
    ];
    texts.dedup();
    texts
}

/// Parse and plan `text` — a plan leaf per subject, range ends and all —
/// then run it: the error of the first step that refuses it, or the run's
/// outcome.
fn each_step(
    engine: &mut sqo_core::SimilarityEngine,
    from: sqo_overlay::PeerId,
    text: &str,
) -> Result<(), VqlError> {
    plan(&parse(text)?)?;
    run(engine, from, text, &ExecOptions::default()).map(|_| ())
}

#[test]
fn no_mutant_of_a_query_text_panics_the_pipeline() {
    let mut engine = EngineBuilder::new().peers(64).seed(77).q(2).build_with_rows(&world());
    let from = engine.random_peer();
    // xorshift64*: the mutants are the same on every run.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut below = move |n: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    };
    const PER_TEXT: usize = 64;
    let (mut mutants, mut refused) = (0, 0);
    for text in texts() {
        let bytes = text.as_bytes();
        for i in 0..PER_TEXT {
            let mut mutant = bytes.to_vec();
            let at = below(bytes.len());
            let what = match i % 4 {
                0 => {
                    mutant[at] ^= 1 << below(8);
                    "flip"
                }
                1 => {
                    mutant.truncate(at);
                    "truncate"
                }
                2 => {
                    let len = 1 + below(16.min(bytes.len() - at));
                    let from = below(bytes.len() - len + 1);
                    mutant[at..at + len].copy_from_slice(&bytes[from..from + len]);
                    "splice"
                }
                _ => {
                    let len = 1 + below(8.min(bytes.len() - at));
                    mutant[at..at + len].iter_mut().for_each(|b| *b = below(256) as u8);
                    "noise"
                }
            };
            let mutant = String::from_utf8_lossy(&mutant).into_owned();
            let outcome = catch_unwind(AssertUnwindSafe(|| each_step(&mut engine, from, &mutant)));
            match outcome {
                Ok(answer) => refused += usize::from(answer.is_err()),
                Err(_) => panic!("{what} at byte {at} of {text:?} panicked: {mutant:?}"),
            }
            mutants += 1;
        }
    }
    println!("{refused} of {mutants} mutants refused, the rest answered");
    assert!(2 * refused >= mutants, "only {refused} of {mutants} mutants were refused");
}

/// A string-distance bound near `i64::MAX` overflowed the q-gram count
/// filter's threshold (`d·q`, `sqo_strsim::count_filter_threshold`) in debug
/// builds. The threshold saturates now — such a bound prunes nothing — and
/// the query answers, at the instance and at the schema level.
#[test]
fn a_distance_bound_too_large_to_count_with_is_answered() {
    let mut engine = EngineBuilder::new().peers(64).seed(77).q(2).build_with_rows(&world());
    let from = engine.random_peer();
    for bound in ["< 9223372036854775807", "<= 9223372036854775807", "< 4611686018427387904"] {
        let text =
            format!("SELECT ?n WHERE {{ (?o,name,?n) FILTER (dist(?n,'BMW 320d') {bound}) }}");
        let out = run(&mut engine, from, &text, &ExecOptions::default()).expect("a bound");
        assert!(out.rows.contains(&vec![Value::from("BMW 320d")]), "{bound}: {:?}", out.rows);
    }
    let text = "SELECT ?a WHERE { (?o,?a,?v) FILTER (dist(?a,'nam') <= 9223372036854775807) }";
    let out = run(&mut engine, from, text, &ExecOptions::default()).expect("a bound");
    assert!(!out.rows.is_empty());
}

/// `dist(..)` nested ten thousand deep overflowed the parser's stack — an
/// abort no `catch_unwind` sees. Nesting past `MAX_DIST_DEPTH` is a parse
/// error now, and the deepest nesting allowed still parses.
#[test]
fn dist_nested_past_its_bound_is_refused_not_a_stack_overflow() {
    assert!(parse(&nested(sqo_vql::parser::MAX_DIST_DEPTH)).is_ok());
    for depth in [sqo_vql::parser::MAX_DIST_DEPTH + 1, 10_000, 100_000] {
        let err = parse(&nested(depth)).unwrap_err();
        assert!(
            matches!(&err, VqlError::Parse { message, .. } if message.contains("nested")),
            "{err:?}"
        );
    }
}
