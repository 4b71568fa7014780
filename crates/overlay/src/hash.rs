//! Order-preserving, prefix-preserving hashing of application values into
//! overlay keys.
//!
//! P-Grid computes data keys "using an order-preserving hash function" (§2),
//! and the similarity operators additionally require the hash to be *prefix
//! preserving* (§4) so that
//!
//! * range queries on keys correspond to value ranges (numeric similarity),
//! * prefix search on `key(A # v)` reaches all values of attribute `A`
//!   (schema-level operations), and
//! * lexicographically close strings cluster on the same or neighboring
//!   peers.
//!
//! Strings are hashed byte-wise (each byte contributes 8 bits, MSB first),
//! which preserves byte-lexicographic order *and* the prefix relation
//! exactly. Keys are truncated to [`MAX_STRING_KEY_BITS`] — truncation keeps
//! order non-strictly (`a <= b ⇒ key(a) <= key(b)`), which is sufficient: two
//! values colliding on a truncated key merely land in the same partition and
//! are disambiguated by the stored payload.
//!
//! Numbers are mapped through standard order-preserving bit tricks
//! (offset-binary for signed integers, sign-magnitude folding for IEEE-754
//! doubles) into 64-bit keys.

use crate::key::Key;

/// Maximum number of bits a hashed string contributes to a key. 32 bytes of
/// string prefix is far deeper than any realistic trie (2^256 partitions),
/// so truncation never affects routing, only stored-key size.
pub const MAX_STRING_KEY_BITS: usize = 256;

/// Hash a string order- and prefix-preservingly.
///
/// ```
/// use sqo_overlay::hash::hash_str;
/// assert!(hash_str("abc") < hash_str("abd"));
/// assert!(hash_str("ab").is_prefix_of(&hash_str("abc")));
/// ```
pub fn hash_str(s: &str) -> Key {
    let bytes = s.as_bytes();
    let max_bytes = MAX_STRING_KEY_BITS / 8;
    Key::from_bytes(&bytes[..bytes.len().min(max_bytes)])
}

/// Hash an unsigned integer (64 bits, MSB first). Order preserving on `u64`.
pub fn hash_u64(v: u64) -> Key {
    Key::from_bytes(&v.to_be_bytes())
}

/// `i64` → `u64`, order preserving (offset binary); [`hash_i64`]'s bits.
pub fn order_bits_i64(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

/// Non-NaN `f64` → `u64`, order preserving (`-0.0` directly before `+0.0`);
/// [`hash_f64`]'s bits.
///
/// # Panics
/// Panics on NaN — NaN has no place in an ordered key space; callers must
/// reject it at ingestion.
pub fn order_bits_f64(v: f64) -> u64 {
    assert!(!v.is_nan(), "cannot hash NaN into an ordered key space");
    let bits = v.to_bits();
    // Negative floats reverse order when read as sign-magnitude integers,
    // so flip all their bits; non-negative ones just get the sign bit set.
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Hash a signed integer via offset-binary encoding. Order preserving on
/// `i64`:
///
/// ```
/// use sqo_overlay::hash::hash_i64;
/// assert!(hash_i64(-5) < hash_i64(0));
/// assert!(hash_i64(0) < hash_i64(5));
/// assert!(hash_i64(i64::MIN) < hash_i64(i64::MAX));
/// ```
pub fn hash_i64(v: i64) -> Key {
    hash_u64(order_bits_i64(v))
}

/// Hash an IEEE-754 double order-preservingly (total order over non-NaN
/// values; panics on NaN, see [`order_bits_f64`]).
pub fn hash_f64(v: f64) -> Key {
    hash_u64(order_bits_f64(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_order_preserved() {
        let words = ["", "a", "aa", "ab", "abc", "b", "ba", "zz"];
        for w in words.windows(2) {
            assert!(hash_str(w[0]) < hash_str(w[1]), "{:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn string_prefix_preserved() {
        assert!(hash_str("pain").is_prefix_of(&hash_str("painting")));
        assert!(hash_str("").is_prefix_of(&hash_str("x")));
        assert!(!hash_str("pa").is_prefix_of(&hash_str("qa")));
    }

    #[test]
    fn long_strings_truncate_consistently() {
        let long_a = "x".repeat(100);
        let long_b = format!("{}y", "x".repeat(99));
        let ka = hash_str(&long_a);
        let kb = hash_str(&long_b);
        assert_eq!(ka.len(), MAX_STRING_KEY_BITS);
        // Truncated keys collide — allowed (non-strict order preservation).
        assert_eq!(ka, kb);
        assert!(hash_str("a") <= hash_str(&long_a));
    }

    #[test]
    fn u64_order() {
        let vals = [0u64, 1, 2, 255, 256, 1 << 40, u64::MAX];
        for w in vals.windows(2) {
            assert!(hash_u64(w[0]) < hash_u64(w[1]));
        }
    }

    #[test]
    fn i64_order() {
        let vals = [i64::MIN, -1_000_000, -1, 0, 1, 42, i64::MAX];
        for w in vals.windows(2) {
            assert!(hash_i64(w[0]) < hash_i64(w[1]));
        }
    }

    #[test]
    fn f64_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(hash_f64(w[0]) <= hash_f64(w[1]), "{} should hash <= {}", w[0], w[1]);
            if w[0] != w[1] {
                assert!(hash_f64(w[0]) < hash_f64(w[1]), "{} vs {}", w[0], w[1]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        hash_f64(f64::NAN);
    }

    #[test]
    fn numeric_keys_are_64_bits() {
        assert_eq!(hash_u64(7).len(), 64);
        assert_eq!(hash_i64(-7).len(), 64);
        assert_eq!(hash_f64(-7.5).len(), 64);
    }
}
