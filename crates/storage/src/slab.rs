//! The stored form of triples: one immutable slab per publication batch.
//!
//! The vertical scheme stores every triple under `3 + |v| − q + 1 + …`
//! keys, and the scans behind the operators read every posting of a key
//! range. A posting therefore must be small and what it points at must lie
//! where the scan reads next. A [`TripleSlab`] holds the triples of one
//! batch — one `postings_for_rows` call, or one decoded snapshot artifact —
//! as three flat pieces behind one `Rc`:
//!
//! * a dense array of fixed-width records (32 bytes: the oid's span, the
//!   attribute's id, the value as a tag and a number or a span, the value's
//!   length in characters, the object's number — see [`crate::objects`]),
//! * one text arena: every string value back to back in record order, then
//!   every oid, then each distinct attribute name once,
//! * a table of the distinct attribute names, with their character lengths.
//!
//! The publication pipeline lays the records out in (attribute, value)
//! order — the order the `A#v` family stores them in — so a prefix scan of
//! an attribute walks records and value text front to back. Nothing is
//! allocated per triple, a posting is the slab's `Rc` and an index, and
//! every clone or drop of a posting of the batch steps one counter.
//!
//! Q-grams need no table: a gram is a substring of a value or of a name,
//! so it is a [`GramSpan`] of the arena. A [`GramInterner`] gives every
//! posting of one gram the span of the gram's first occurrence, which makes
//! "same gram as the posting before" an integer comparison.
//!
//! Offsets are `u32` behind checked conversions ([`SlabFull`]): a slab
//! holds under 4 GiB of text.

use crate::objects::Objects;
use crate::posting::Posting;
use crate::triple::{AttrName, Triple, ValueRef};
use rustc_hash::FxHashMap;
use sqo_strsim::filters::char_len;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

/// The batch does not fit a slab: more than `u32::MAX` triples or bytes of
/// text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabFull;

/// A count or an offset as a record holds it.
fn word(v: usize) -> Result<u32, SlabFull> {
    u32::try_from(v).map_err(|_| SlabFull)
}

/// A stretch of a slab's text arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    off: u32,
    len: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.off as usize..self.off as usize + self.len as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Str,
    Int,
    Float,
}

/// One stored triple.
#[derive(Debug, Clone, Copy)]
struct Record {
    oid: Span,
    /// A string value's span (offset, length), or the low and high half of
    /// a number's bits.
    value: [u32; 2],
    /// Index into the slab's name table.
    attr: u32,
    /// Length of a string value in characters; 0 for numbers.
    value_chars: u32,
    /// The object's number ([`crate::objects`]).
    object: u32,
    tag: Tag,
}

const _: () = assert!(std::mem::size_of::<Record>() == 32);

/// A char count no stored string has: a posting's "no string value". The
/// builder refuses a value that long ([`SlabFull`]).
pub(crate) const NO_CHARS: u32 = u32::MAX;

impl Record {
    /// Where a string value lies in the arena.
    fn value_span(&self) -> Span {
        Span { off: self.value[0], len: self.value[1] }
    }
}

/// One distinct attribute name of a slab.
#[derive(Debug)]
struct Name {
    name: AttrName,
    /// The arena's copy of the name, which schema-level grams are spans of.
    span: Span,
    chars: u32,
}

/// The triples of one batch. See the [module docs](self).
pub struct TripleSlab {
    records: Vec<Record>,
    text: String,
    names: Vec<Name>,
}

impl fmt::Debug for TripleSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TripleSlab")
            .field("triples", &self.records.len())
            .field("text_bytes", &self.text.len())
            .field("names", &self.names.len())
            .finish()
    }
}

impl TripleSlab {
    /// A slab of `triples`, in the order given, its objects numbered by
    /// first sight.
    ///
    /// # Panics
    /// Panics past 4 GiB of text.
    pub fn of<'a>(triples: impl IntoIterator<Item = &'a Triple>) -> Rc<TripleSlab> {
        let (mut b, mut objects) = (SlabBuilder::default(), Objects::default());
        for t in triples {
            let object = objects.number(&t.oid);
            b.push(&t.oid, t.attr.as_str(), t.value.as_ref(), object).expect("under 4 GiB of text");
        }
        b.finish().expect("under 4 GiB of text")
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The triple at `index`, if there is one.
    pub fn get(&self, index: u32) -> Option<TripleRef<'_>> {
        self.records.get(index as usize).map(|rec| TripleRef { slab: self, rec })
    }

    /// The triple at `index`.
    ///
    /// # Panics
    /// Panics when `index` is out of range.
    pub fn triple(&self, index: u32) -> TripleRef<'_> {
        TripleRef { slab: self, rec: &self.records[index as usize] }
    }

    /// The distinct attribute names, in id order.
    pub fn names(&self) -> impl Iterator<Item = &AttrName> {
        self.names.iter().map(|n| &n.name)
    }

    /// Where `gram` lies in the arena, given that it starts at character
    /// `pos` of the string value of triple `index`; `None` when it does not.
    pub fn value_gram(&self, index: u32, pos: u32, gram: &str) -> Option<GramSpan> {
        let rec = self.records.get(index as usize)?;
        match rec.tag {
            Tag::Str => self.gram_at(rec.value_span(), rec.value_chars, pos, gram),
            Tag::Int | Tag::Float => None,
        }
    }

    /// Where `gram` lies in the arena, given that it starts at character
    /// `pos` of the attribute name of triple `index`; `None` when it does
    /// not.
    pub fn name_gram(&self, index: u32, pos: u32, gram: &str) -> Option<GramSpan> {
        let name = &self.names[self.records.get(index as usize)?.attr as usize];
        self.gram_at(name.span, name.chars, pos, gram)
    }

    /// `gram`'s span if it is what `source` (of `chars` characters) reads
    /// from character `pos` on.
    fn gram_at(&self, source: Span, chars: u32, pos: u32, gram: &str) -> Option<GramSpan> {
        let s = &self.text[source.range()];
        let at = if chars == source.len {
            pos as usize // ASCII: characters are bytes
        } else {
            s.char_indices().nth(pos as usize)?.0
        };
        let bytes = at..at + gram.len();
        (s.get(bytes.clone())? == gram).then(|| GramSpan::at(source.off, bytes))?
    }

    /// The text of `gram`, if it is a span of this slab's arena.
    pub fn gram_text(&self, gram: GramSpan) -> Option<&str> {
        self.text.get(gram.off as usize..gram.off as usize + gram.len as usize)
    }
}

/// A q-gram as postings hold it: a stretch of their slab's text arena.
/// Made by [`TripleSlab::value_gram`] / [`TripleSlab::name_gram`]; two
/// postings of one slab with equal spans carry the same gram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct GramSpan {
    pub(crate) off: u32,
    pub(crate) len: u16,
}

impl GramSpan {
    /// The span of the gram at `bytes` of a string that starts at arena
    /// offset `base`; `None` for a gram of 64 KiB or more.
    pub(crate) fn at(base: u32, bytes: Range<usize>) -> Option<GramSpan> {
        Some(GramSpan { off: base + bytes.start as u32, len: u16::try_from(bytes.len()).ok()? })
    }
}

/// One span per distinct gram of a slab: the first occurrence stands for
/// all, so the postings of one gram compare equal by span. Grams come in
/// runs — the postings of one list, the names of one column — and a run
/// needs no hashing.
#[derive(Debug, Default)]
pub struct GramInterner<'s> {
    seen: FxHashMap<&'s str, GramSpan>,
    last: Option<(&'s str, GramSpan)>,
}

impl<'s> GramInterner<'s> {
    /// The slab's span for `gram`; `locate` finds this occurrence when it
    /// is the first.
    pub fn share(
        &mut self,
        gram: &'s str,
        locate: impl FnOnce() -> Option<GramSpan>,
    ) -> Option<GramSpan> {
        if let Some((last, span)) = self.last {
            if last == gram {
                return Some(span);
            }
        }
        let span = match self.seen.get(gram) {
            Some(span) => *span,
            None => {
                let span = locate()?;
                self.seen.insert(gram, span);
                span
            }
        };
        self.last = Some((gram, span));
        Some(span)
    }
}

/// Assembles a [`TripleSlab`]: triples in, in the order they are to lie.
#[derive(Debug, Default)]
pub struct SlabBuilder {
    records: Vec<Record>,
    /// The two growing regions of the arena; `finish` joins them, so until
    /// then an oid's span is relative to `oids`.
    values: String,
    oids: String,
    names: Vec<Name>,
    name_ids: FxHashMap<Rc<str>, u32>,
}

impl SlabBuilder {
    /// A builder with room for `triples` records, `value_bytes` of string
    /// values and `oid_bytes` of oids.
    pub fn with_capacity(triples: usize, value_bytes: usize, oid_bytes: usize) -> Self {
        Self {
            records: Vec::with_capacity(triples),
            values: String::with_capacity(value_bytes),
            oids: String::with_capacity(oid_bytes),
            ..Self::default()
        }
    }

    /// Append a triple of the object numbered `object`; returns its index.
    pub fn push(
        &mut self,
        oid: &str,
        attr: &str,
        value: ValueRef<'_>,
        object: u32,
    ) -> Result<u32, SlabFull> {
        let index = word(self.records.len())?;
        let attr_id = self.name_id(attr)?;
        let oid_span = Span { off: word(self.oids.len())?, len: word(oid.len())? };
        self.oids.push_str(oid);
        let bits = |b: u64| [b as u32, (b >> 32) as u32];
        let (tag, value_words, value_chars) = match value {
            ValueRef::Str(s) => {
                let span = [word(self.values.len())?, word(s.len())?];
                self.values.push_str(s);
                let chars = word(char_len(s))?;
                if chars == NO_CHARS {
                    return Err(SlabFull);
                }
                (Tag::Str, span, chars)
            }
            ValueRef::Int(i) => (Tag::Int, bits(i as u64), 0),
            ValueRef::Float(f) => (Tag::Float, bits(f.to_bits()), 0),
        };
        self.records.push(Record {
            oid: oid_span,
            value: value_words,
            attr: attr_id,
            value_chars,
            object,
            tag,
        });
        Ok(index)
    }

    /// The id of `attr` in the name table, entered on first sight. Rows
    /// repeat their columns, so the name asked for last is tried first.
    fn name_id(&mut self, attr: &str) -> Result<u32, SlabFull> {
        if let Some(last) = self.records.last() {
            if self.names[last.attr as usize].name.as_str() == attr {
                return Ok(last.attr);
            }
        }
        if let Some(id) = self.name_ids.get(attr) {
            return Ok(*id);
        }
        let id = word(self.names.len())?;
        let name: Rc<str> = attr.into();
        self.name_ids.insert(Rc::clone(&name), id);
        self.names.push(Name {
            name: AttrName::new(name),
            span: Span::default(),
            chars: word(char_len(attr))?,
        });
        Ok(id)
    }

    /// Seal the slab: one arena of values, oids, names.
    pub fn finish(self) -> Result<Rc<TripleSlab>, SlabFull> {
        let Self { mut records, values: mut text, oids, mut names, .. } = self;
        let oid_base = text.len();
        let names_len: usize = names.iter().map(|n| n.name.as_str().len()).sum();
        // No offset below exceeds the arena's length, so this one check
        // covers them all.
        word(oid_base + oids.len() + names_len)?;
        text.reserve_exact(oids.len() + names_len);
        text.push_str(&oids);
        for n in &mut names {
            n.span = Span { off: text.len() as u32, len: n.name.as_str().len() as u32 };
            text.push_str(n.name.as_str());
        }
        text.shrink_to_fit();
        for r in &mut records {
            r.oid.off += oid_base as u32;
        }
        Ok(Rc::new(TripleSlab { records, text, names }))
    }
}

/// One stored triple, lent by its slab.
#[derive(Clone, Copy)]
pub struct TripleRef<'a> {
    slab: &'a TripleSlab,
    rec: &'a Record,
}

impl<'a> TripleRef<'a> {
    pub fn oid(self) -> &'a str {
        &self.slab.text[self.rec.oid.range()]
    }

    pub fn attr(self) -> &'a AttrName {
        &self.slab.names[self.rec.attr as usize].name
    }

    pub fn value(self) -> ValueRef<'a> {
        let [lo, hi] = self.rec.value;
        let bits = u64::from(lo) | u64::from(hi) << 32;
        match self.rec.tag {
            Tag::Str => ValueRef::Str(&self.slab.text[self.rec.value_span().range()]),
            Tag::Int => ValueRef::Int(bits as i64),
            Tag::Float => ValueRef::Float(f64::from_bits(bits)),
        }
    }

    /// String content if the value is a string.
    pub fn value_str(self) -> Option<&'a str> {
        self.value().as_str()
    }

    /// Length in characters of a string value, stored — no text is read.
    pub fn char_len(self) -> Option<usize> {
        (self.rec.tag == Tag::Str).then_some(self.rec.value_chars as usize)
    }

    /// Length in characters of the attribute name, stored.
    pub fn attr_char_len(self) -> usize {
        self.slab.names[self.rec.attr as usize].chars as usize
    }

    /// Serialized size estimate (oid + attr + value + framing), from the
    /// record's lengths and the name's: no text is read.
    pub fn repr_len(self) -> usize {
        let name = self.slab.names[self.rec.attr as usize].span.len;
        self.oid_len() + name as usize + self.value_repr_len() + 12
    }

    /// Serialized size of the value alone.
    pub(crate) fn value_repr_len(self) -> usize {
        match self.rec.tag {
            Tag::Str => self.rec.value_span().len as usize,
            Tag::Int | Tag::Float => 8,
        }
    }

    /// The object's number ([`crate::objects`]).
    pub fn object(self) -> u32 {
        self.rec.object
    }

    /// Length of the oid in bytes.
    pub(crate) fn oid_len(self) -> usize {
        self.rec.oid.len as usize
    }

    /// The attribute's id in the slab's name table.
    pub fn attr_id(self) -> u32 {
        self.rec.attr
    }

    /// Where a string value starts in the arena.
    pub(crate) fn value_offset(self) -> u32 {
        self.rec.value_span().off
    }

    /// Where the arena's copy of the attribute name starts.
    pub(crate) fn attr_offset(self) -> u32 {
        self.slab.names[self.rec.attr as usize].span.off
    }
}

/// Equality on content: triples of different slabs with the same text are
/// equal.
impl PartialEq for TripleRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.rec, other.rec)
            || (self.oid() == other.oid()
                && self.attr() == other.attr()
                && self.value() == other.value())
    }
}

impl PartialEq<Triple> for TripleRef<'_> {
    fn eq(&self, other: &Triple) -> bool {
        self.oid() == other.oid && *self.attr() == other.attr && self.value() == other.value
    }
}

impl fmt::Debug for TripleRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Triple")
            .field("oid", &self.oid())
            .field("attr", &self.attr().as_str())
            .field("value", &self.value())
            .finish()
    }
}

/// Algorithm 2's "a == ξ(t′, 2)" guard over a scan: is the posting's
/// attribute the queried one? Within a slab that is an id comparison — of
/// the id a posting without a gram carries inline, so the guard reads the
/// posting and nothing else, or of its record's — and the name is looked up
/// when the scan crosses into another slab, not once per candidate.
#[derive(Debug)]
pub struct AttrGuard<'n, 'p> {
    name: &'n str,
    slab: Option<&'p TripleSlab>,
    id: Option<u32>,
}

impl<'n, 'p> AttrGuard<'n, 'p> {
    pub fn new(name: &'n str) -> Self {
        Self { name, slab: None, id: None }
    }

    pub fn admits(&mut self, p: &'p Posting) -> bool {
        let slab: &'p TripleSlab = &p.slab;
        if !self.slab.is_some_and(|s| std::ptr::eq(s, slab)) {
            self.slab = Some(slab);
            self.id =
                slab.names.iter().position(|n| n.name.as_str() == self.name).map(|i| i as u32);
        }
        self.id == Some(p.attr_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Value;

    fn slab() -> Rc<TripleSlab> {
        TripleSlab::of(&[
            Triple::new("car:1", "name", "BMW 320d"),
            Triple::new("car:1", "hp", 190),
            Triple::new("car:2", "name", "日本語x"),
            Triple::new("car:2", "price", 2.5),
        ])
    }

    #[test]
    fn records_read_back_what_went_in() {
        let slab = slab();
        assert_eq!(slab.len(), 4);
        let t = slab.triple(0);
        assert_eq!(
            (t.oid(), t.attr().as_str(), t.value_str()),
            ("car:1", "name", Some("BMW 320d"))
        );
        assert_eq!((t.char_len(), t.attr_char_len()), (Some(8), 4));
        assert_eq!(t.repr_len(), Triple::new("car:1", "name", "BMW 320d").repr_len());
        assert_eq!(slab.triple(1).value(), ValueRef::Int(190));
        assert_eq!(slab.triple(1).char_len(), None);
        assert_eq!(slab.triple(2).char_len(), Some(4), "characters, not bytes");
        assert_eq!(slab.triple(3).value(), Value::Float(2.5));
        assert_eq!(slab.triple(3), Triple::new("car:2", "price", 2.5));
        assert!(slab.get(4).is_none());
        assert_eq!(slab.names().map(AttrName::as_str).collect::<Vec<_>>(), ["name", "hp", "price"]);
    }

    #[test]
    fn negative_numbers_survive_the_split_into_words() {
        let slab = TripleSlab::of(&[Triple::new("o", "a", -7), Triple::new("o", "a", -0.0)]);
        assert_eq!(slab.triple(0).value(), ValueRef::Int(-7));
        let ValueRef::Float(z) = slab.triple(1).value() else { panic!("a float") };
        assert!(z == 0.0 && z.is_sign_negative());
    }

    #[test]
    fn grams_are_spans_of_the_arena() {
        let slab = slab();
        let g = slab.value_gram(0, 4, "320").expect("the gram at character 4");
        assert_eq!(slab.gram_text(g), Some("320"));
        assert_eq!(slab.value_gram(0, 3, "320"), None, "not at that position");
        assert_eq!(slab.value_gram(1, 0, "19"), None, "numbers have no grams");
        assert_eq!(slab.value_gram(0, 7, "dx"), None, "past the end");
        let g = slab.value_gram(2, 2, "語x").expect("character offsets");
        assert_eq!(slab.gram_text(g), Some("語x"));
        assert_eq!(slab.value_gram(2, 9, "x"), None);
        let g = slab.name_gram(3, 2, "ice").expect("a gram of the name");
        assert_eq!(slab.gram_text(g), Some("ice"));
        // A span off a character boundary, or off the arena, is no gram.
        let inside = slab.value_gram(2, 0, "日").expect("one character");
        assert_eq!(slab.gram_text(GramSpan { off: inside.off + 1, len: 3 }), None);
        assert_eq!(slab.gram_text(GramSpan { off: u32::MAX, len: 2 }), None);
    }

    #[test]
    fn the_interner_hands_out_the_first_occurrence() {
        let slab = TripleSlab::of(&[Triple::new("a", "w", "abab"), Triple::new("b", "w", "xab")]);
        let mut grams = GramInterner::default();
        let first = grams.share("ab", || slab.value_gram(0, 0, "ab")).unwrap();
        let other = grams.share("ba", || slab.value_gram(0, 1, "ba")).unwrap();
        let again = grams.share("ab", || panic!("already seen")).unwrap();
        assert_eq!(first, again);
        assert_ne!(first, other);
        assert_eq!(grams.share("zz", || slab.value_gram(1, 0, "zz")), None);
    }

    #[test]
    fn the_guard_compares_ids_and_follows_the_scan_across_slabs() {
        use crate::posting::{BaseKind, PostingKind};
        let (a, b) = (slab(), TripleSlab::of(&[Triple::new("x", "hp", 1)]));
        let base = |slab: &Rc<TripleSlab>| -> Vec<Posting> {
            let kind = PostingKind::Base(BaseKind::AttrValue);
            (0..slab.len() as u32).map(|i| Posting::new(kind, slab, i, None).unwrap()).collect()
        };
        let (pa, pb) = (base(&a), base(&b));
        let mut guard = AttrGuard::new("hp");
        let scan = pa.iter().chain(&pb).chain(pa.iter().take(2));
        let admitted: Vec<bool> = scan.map(|p| guard.admits(p)).collect();
        assert_eq!(admitted, [false, true, false, false, true, false, true]);
        let mut absent = AttrGuard::new("nam");
        assert!(pa.iter().all(|p| !absent.admits(p)), "a name, not a prefix of one");
        // A gram posting carries no id inline: the guard reads its record.
        let at = Some((a.name_gram(1, 0, "hp").unwrap(), 0));
        let gram = Posting::new(PostingKind::SchemaGram, &a, 1, at).unwrap();
        assert!(guard.admits(&gram) && !absent.admits(&gram));
    }

    #[test]
    fn equality_is_on_content() {
        let (a, b) = (slab(), slab());
        assert_eq!(a.triple(2), b.triple(2));
        assert_ne!(a.triple(0), a.triple(2));
        assert_eq!(a.triple(1), Triple::new("car:1", "hp", 190));
    }
}
