//! Binary keys for the trie-structured overlay.
//!
//! P-Grid organizes its key space as a binary trie: every peer is associated
//! with a binary string π(p) (its *path*), and data keys are binary strings
//! that have some peer's path as a prefix. [`Key`] is an arbitrary-length
//! bit string, packed MSB-first into bytes, with
//!
//! * total lexicographic order on bits (a proper prefix sorts before its
//!   extensions), matching the order produced by the order-preserving hash
//!   in [`crate::hash`], and
//! * the prefix algebra (`is_prefix_of`, `common_prefix_len`,
//!   `complement_at`) that Algorithm 1's prefix routing is defined on.
//!
//! [`KeyRef`] is the same bit string borrowed: packed bytes that live
//! somewhere else — in a [`Key`], in a partition's key arena
//! ([`crate::store`]), in a snapshot artifact being decoded — plus a bit
//! length. Order and the prefix test are defined on the view, and `Key`'s
//! are the view's, so a stored key compares without being materialized.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-length binary string, the key type of the overlay.
///
/// Bits are packed MSB-first: bit `i` of the key lives in byte `i / 8` at
/// bit position `7 - (i % 8)`. Unused trailing bits of the last byte are
/// kept zero (an invariant relied on by `Ord` and `Hash`).
#[derive(PartialEq, Eq, Hash, Default)]
pub struct Key {
    bytes: Vec<u8>,
    len: usize,
}

/// `clone_from` copies into the buffer the key already has: a key remade
/// for each of many lookups allocates once.
impl Clone for Key {
    #[inline]
    fn clone(&self) -> Self {
        Self { bytes: self.bytes.clone(), len: self.len }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.bytes.clone_from(&source.bytes);
        self.len = source.len;
    }
}

impl Key {
    /// The empty key (root of the trie; prefix of every key).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Key from whole bytes (8 bits each, MSB first).
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Self { bytes: bytes.to_vec(), len: bytes.len() * 8 }
    }

    /// Overwrite this key with the whole bytes of `parts`, one after the
    /// other (8 bits each, MSB first), in its own buffer: a key remade for
    /// each of many strings allocates once, not once per string.
    pub fn set_from_parts(&mut self, parts: &[&[u8]]) {
        self.bytes.clear();
        for part in parts {
            self.bytes.extend_from_slice(part);
        }
        self.len = self.bytes.len() * 8;
    }

    /// Key from individual bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut k = Self::empty();
        for b in bits {
            k.push_bit(b);
        }
        k
    }

    /// A key from its packed representation ([`Self::as_bytes`] +
    /// [`Self::len`]), taking the buffer — how the storage key builders hand
    /// over what they packed. (Bytes from outside the program go through
    /// [`KeyRef::new`], which refuses instead of panicking.)
    ///
    /// # Panics
    /// Panics when `bytes` is not exactly `len.div_ceil(8)` bytes or the
    /// unused trailing bits of the last byte are nonzero (the invariant
    /// `Ord` and `Hash` rely on).
    pub fn from_raw_parts(bytes: Vec<u8>, len: usize) -> Self {
        assert!(
            KeyRef::new(&bytes, len).is_some(),
            "byte count must match bit length and unused trailing bits must be zero"
        );
        Self { bytes, len }
    }

    /// Parse a `"0101"`-style string; useful in tests and Display-roundtrips.
    ///
    /// # Panics
    /// Panics on characters other than `'0'`/`'1'`.
    pub fn parse(s: &str) -> Self {
        Self::from_bits(s.chars().map(|c| match c {
            '0' => false,
            '1' => true,
            other => panic!("invalid bit char {other:?}"),
        }))
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit at position `i` (0-based from the most significant end).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        self.as_ref().bit(i)
    }

    /// Append one bit.
    pub fn push_bit(&mut self, b: bool) {
        if self.len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if b {
            let i = self.len;
            self.bytes[i / 8] |= 1 << (7 - (i % 8));
        }
        self.len += 1;
    }

    /// The first `l` bits as a new key.
    ///
    /// # Panics
    /// Panics if `l > len()`.
    pub fn prefix(&self, l: usize) -> Key {
        assert!(l <= self.len, "prefix length {l} exceeds key length {}", self.len);
        let nbytes = l.div_ceil(8);
        let mut bytes = self.bytes[..nbytes].to_vec();
        if !l.is_multiple_of(8) {
            // Zero the unused low bits of the last byte (type invariant).
            let mask = 0xFFu8 << (8 - (l % 8));
            *bytes.last_mut().expect("nbytes > 0 when l % 8 != 0") &= mask;
        }
        Key { bytes, len: l }
    }

    /// `self` extended by one bit (functional form of [`Self::push_bit`]).
    pub fn child(&self, b: bool) -> Key {
        let mut k = self.clone();
        k.push_bit(b);
        k
    }

    /// Concatenation `self · other`. Byte-aligned keys — every fragment the
    /// storage key families join — append as a slice.
    pub fn concat(&self, other: &Key) -> Key {
        let mut bytes = Vec::with_capacity((self.len + other.len).div_ceil(8));
        bytes.extend_from_slice(&self.bytes);
        let mut k = Key { bytes, len: self.len };
        if self.len.is_multiple_of(8) {
            k.bytes.extend_from_slice(&other.bytes);
            k.len += other.len;
        } else {
            for i in 0..other.len {
                k.push_bit(other.bit(i));
            }
        }
        k
    }

    /// The key as a borrowed view (what stored keys are compared through).
    #[inline]
    pub fn as_ref(&self) -> KeyRef<'_> {
        KeyRef { bytes: &self.bytes, len: self.len }
    }

    /// `true` iff `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &Key) -> bool {
        self.as_ref().is_prefix_of(other.as_ref())
    }

    /// Length of the longest common prefix of `self` and `other`.
    pub fn common_prefix_len(&self, other: &Key) -> usize {
        self.as_ref().common_prefix_len(other.as_ref())
    }

    /// The *complementary* path at level `l`: the first `l` bits of `self`
    /// followed by the inverse of bit `l`. This is the subtrie P-Grid keeps
    /// routing references to at level `l` (the π̄(p, l+1) of the paper).
    ///
    /// # Panics
    /// Panics if `l >= len()`.
    pub fn complement_at(&self, l: usize) -> Key {
        assert!(l < self.len, "complement level {l} out of range (len {})", self.len);
        let mut k = self.prefix(l);
        k.push_bit(!self.bit(l));
        k
    }

    /// Compare `self`, conceptually extended with infinitely many copies of
    /// `filler`, against the finite key `other`.
    ///
    /// This is how a trie partition's covered key *interval* is compared
    /// against range bounds without materializing interval endpoints:
    /// a partition with path π covers exactly the keys in
    /// `[π·000…, π·111…]`, so e.g. "partition max ≥ lo" is
    /// `cmp_extended(π, true, lo) != Less`.
    pub fn cmp_extended(&self, filler: bool, other: &Key) -> Ordering {
        self.as_ref().cmp_extended(filler, other.as_ref())
    }

    /// Render as a `"0101"` string.
    pub fn to_bit_string(&self) -> String {
        (0..self.len).map(|i| if self.bit(i) { '1' } else { '0' }).collect()
    }

    /// The packed bytes (last byte zero-padded).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_ref().cmp(&other.as_ref())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({})", self.to_bit_string())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_bit_string())
    }
}

/// A borrowed [`Key`]: packed bytes owned elsewhere and a bit length, under
/// the same invariant (exactly `len.div_ceil(8)` bytes, unused trailing
/// bits zero) and with the same order and prefix test.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct KeyRef<'a> {
    bytes: &'a [u8],
    len: usize,
}

impl<'a> KeyRef<'a> {
    /// A view of `len` bits packed into `bytes`, or `None` when `bytes` is
    /// not exactly `len.div_ceil(8)` bytes or the unused trailing bits of
    /// the last byte are nonzero — the check for bytes from outside the
    /// program (a snapshot artifact).
    pub fn new(bytes: &'a [u8], len: usize) -> Option<Self> {
        let padding = if len.is_multiple_of(8) { 0 } else { 0xFF >> (len % 8) };
        let clean = bytes.last().is_none_or(|last| last & padding == 0);
        (bytes.len() == len.div_ceil(8) && clean).then_some(KeyRef { bytes, len })
    }

    /// A view of bytes this crate packed itself (a stored key's stretch of
    /// its run's arena): the invariant holds by construction.
    #[inline]
    pub(crate) fn trusted(bytes: &'a [u8], len: usize) -> Self {
        debug_assert!(KeyRef::new(bytes, len).is_some(), "a stored key keeps the invariant");
        KeyRef { bytes, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The packed bytes (last byte zero-padded).
    #[inline]
    pub fn as_bytes(self) -> &'a [u8] {
        self.bytes
    }

    /// Bit at position `i` (0-based from the most significant end).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn bit(self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        (self.bytes[i / 8] >> (7 - (i % 8))) & 1 == 1
    }

    /// An owned copy.
    pub fn to_key(self) -> Key {
        Key { bytes: self.bytes.to_vec(), len: self.len }
    }

    /// `true` iff `self` is a (non-strict) prefix of `other`.
    #[inline]
    pub fn is_prefix_of(self, other: KeyRef<'_>) -> bool {
        self.len <= other.len && self.common_prefix_len(other) == self.len
    }

    /// Length of the longest common prefix of `self` and `other`.
    pub fn common_prefix_len(self, other: KeyRef<'_>) -> usize {
        let max = self.len.min(other.len);
        let n = max.div_ceil(8);
        let (a, b) = (&self.bytes[..n], &other.bytes[..n]);
        // First differing bit, a word and then a byte at a time. In the last
        // byte it may fall into the shorter key's zero padding, past `max`.
        for (i, (x, y)) in a.chunks_exact(8).zip(b.chunks_exact(8)).enumerate() {
            let diff = u64::from_be_bytes(x.try_into().expect("8-byte chunk"))
                ^ u64::from_be_bytes(y.try_into().expect("8-byte chunk"));
            if diff != 0 {
                return (i * 64 + diff.leading_zeros() as usize).min(max);
            }
        }
        for i in n / 8 * 8..n {
            let diff = a[i] ^ b[i];
            if diff != 0 {
                return (i * 8 + diff.leading_zeros() as usize).min(max);
            }
        }
        max
    }

    /// [`Key::cmp_extended`] on views.
    pub fn cmp_extended(self, filler: bool, other: KeyRef<'_>) -> Ordering {
        let common = self.common_prefix_len(other);
        if common < self.len && common < other.len {
            // Differ at a real bit of both keys.
            return if self.bit(common) { Ordering::Greater } else { Ordering::Less };
        }
        if common == other.len {
            // `other` exhausted: other is a prefix of self·filler^∞.
            if common < self.len {
                return Ordering::Greater; // self has real bits beyond other
            }
            // self exhausted at the same point: the stream is other·filler^∞.
            // With filler = 1 that is strictly above `other`; with filler = 0
            // it is the infimum of the interval starting at `other`, which we
            // report as Equal (interval semantics, see doc comment).
            return if filler { Ordering::Greater } else { Ordering::Equal };
        }
        // `self` exhausted, other has bits left: compare filler stream
        // against other's remaining bits.
        for i in common..other.len {
            if filler != other.bit(i) {
                return if filler { Ordering::Greater } else { Ordering::Less };
            }
        }
        // other is a prefix of the filler-extended stream: the stream
        // continues infinitely, so it is greater unless filler = 0 (infimum).
        if filler {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }
}

impl Ord for KeyRef<'_> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Packed-byte comparison is bit-lexicographic thanks to the
        // zero-padding invariant; ties (equal bytes) break by length.
        let n = self.bytes.len().min(other.bytes.len());
        match self.bytes[..n].cmp(&other.bytes[..n]) {
            Ordering::Equal => self.len.cmp(&other.len),
            ord => ord,
        }
    }
}

impl PartialOrd for KeyRef<'_> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for KeyRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({self})")
    }
}

impl fmt::Display for KeyRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (0..self.len).try_for_each(|i| f.write_str(if self.bit(i) { "1" } else { "0" }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_bits() {
        let mut k = Key::empty();
        assert!(k.is_empty());
        k.push_bit(true);
        k.push_bit(false);
        k.push_bit(true);
        assert_eq!(k.len(), 3);
        assert!(k.bit(0));
        assert!(!k.bit(1));
        assert!(k.bit(2));
        assert_eq!(k.to_bit_string(), "101");
    }

    #[test]
    fn parse_roundtrip() {
        for s in ["", "0", "1", "0110", "111111111", "010101010101010101"] {
            assert_eq!(Key::parse(s).to_bit_string(), s);
        }
    }

    #[test]
    fn from_bytes_msb_first() {
        let k = Key::from_bytes(&[0b1010_0000]);
        assert_eq!(k.len(), 8);
        assert_eq!(k.to_bit_string(), "10100000");
    }

    #[test]
    fn ordering_is_bit_lexicographic() {
        let cases = [
            ("", "0"), // prefix before extension
            ("0", "1"),
            ("0", "00"),
            ("01", "1"),
            ("0110", "0111"),
            ("101", "11"),
            ("00000000", "000000001"),
            ("011111111", "10"),
        ];
        for (a, b) in cases {
            assert!(Key::parse(a) < Key::parse(b), "{a} should sort before {b}");
        }
    }

    #[test]
    fn prefix_masks_trailing_bits() {
        let k = Key::parse("10111");
        let p = k.prefix(2);
        assert_eq!(p.to_bit_string(), "10");
        // Padding invariant: equal to an independently built key.
        assert_eq!(p, Key::parse("10"));
        assert_eq!(k.prefix(0), Key::empty());
        assert_eq!(k.prefix(5), k);
    }

    #[test]
    fn prefix_relation() {
        let k = Key::parse("0101100");
        assert!(Key::parse("0101").is_prefix_of(&k));
        assert!(Key::empty().is_prefix_of(&k));
        assert!(k.is_prefix_of(&k));
        assert!(!Key::parse("0100").is_prefix_of(&k));
        assert!(!Key::parse("01011001").is_prefix_of(&k));
    }

    #[test]
    fn common_prefix() {
        assert_eq!(Key::parse("0101").common_prefix_len(&Key::parse("0111")), 2);
        assert_eq!(Key::parse("1111").common_prefix_len(&Key::parse("1111")), 4);
        assert_eq!(Key::parse("0").common_prefix_len(&Key::parse("1")), 0);
        assert_eq!(Key::empty().common_prefix_len(&Key::parse("101")), 0);
        // Across byte boundaries.
        let a = Key::parse("101010101010");
        let b = Key::parse("101010101011");
        assert_eq!(a.common_prefix_len(&b), 11);
    }

    #[test]
    fn complement_at_level() {
        let k = Key::parse("0110");
        assert_eq!(k.complement_at(0).to_bit_string(), "1");
        assert_eq!(k.complement_at(1).to_bit_string(), "00");
        assert_eq!(k.complement_at(3).to_bit_string(), "0111");
    }

    #[test]
    fn concat_and_child() {
        let a = Key::parse("01");
        let b = Key::parse("101");
        assert_eq!(a.concat(&b).to_bit_string(), "01101");
        assert_eq!(a.child(true).to_bit_string(), "011");
        assert_eq!(Key::empty().concat(&b), b);
    }

    #[test]
    fn cmp_extended_interval_semantics() {
        use Ordering::*;
        let part = Key::parse("01"); // covers [0100…, 0111…]
                                     // Partition max (0111…) vs bounds:
        assert_eq!(part.cmp_extended(true, &Key::parse("0101")), Greater);
        assert_eq!(part.cmp_extended(true, &Key::parse("1000")), Less);
        assert_eq!(part.cmp_extended(true, &Key::parse("01")), Greater);
        // Partition min (0100… ≙ 01) vs bounds:
        assert_eq!(part.cmp_extended(false, &Key::parse("0101")), Less);
        assert_eq!(part.cmp_extended(false, &Key::parse("0000")), Greater);
        assert_eq!(part.cmp_extended(false, &Key::parse("01")), Equal);
        assert_eq!(part.cmp_extended(false, &Key::parse("0100")), Equal);
        assert_eq!(part.cmp_extended(false, &Key::parse("01000001")), Less);
    }

    #[test]
    fn cmp_extended_degenerate_root() {
        use Ordering::*;
        let root = Key::empty(); // covers everything
        assert_eq!(root.cmp_extended(true, &Key::parse("1111")), Greater);
        assert_eq!(root.cmp_extended(false, &Key::parse("0000")), Equal);
        assert_eq!(root.cmp_extended(false, &Key::parse("0001")), Less);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        Key::parse("01").bit(2);
    }
}
