//! Index postings — what actually gets stored in the overlay.
//!
//! A posting is a fixed-width record of 24 bytes: the `Rc` of its batch's
//! [`TripleSlab`] (8), the index of its triple there (4), two words that
//! depend on its kind (4 + 4), a gram length (2), its [`PostingKind`] as one
//! byte and a source length (1):
//!
//! | kind | first word | second word | gram length | source length |
//! |---|---|---|---|---|
//! | `InstanceGram`, `SchemaGram` | the gram's position | the gram's arena offset | the gram's bytes | chars of the value (the name, at schema level) below 255, else 255 |
//! | `Base(_)`, `ShortValue`, `ShortAttr` | the value's length in chars, or none | the attribute's id | 0 | 0 |
//!
//! A q-gram posting's gram is a span of the slab's text arena. A posting
//! without a gram keeps inline what a scan over it asks first — is the
//! attribute the queried one, is the value a string inside the length
//! window — so the naive baseline's scan rejects a candidate from the
//! posting alone and reads the record and the text only of those in the
//! window. Both words are copies of the record's, filled where the
//! publication pipeline holds it ([`Posting::new`] reads it for any other
//! caller, the snapshot decoder among them; the codec writes neither).
//! So is a gram posting's source length: a gram's rank and Algorithm 2's
//! length filter ask it of every posting they look at, and a source of
//! fewer than 255 chars answers without its record.
//!
//! A gram posting ranks ([`Item::rank`], see [`gram_rank`]) by the length
//! in chars of the string its gram was cut from, then by the gram's
//! position — the two numbers Algorithm 2's length and position filters
//! test — and a run keeps the postings of each key in rank order, ties in
//! publication order. A probe's filter therefore bisects a gram list to
//! the few windows that can hold a survivor instead of reading it whole
//! (`sqo_core::ProbeFilter`). Every other posting ranks 0: its key keeps
//! publication order.
//!
//! A posting owns nothing else, so a clone or a drop is one reference-count
//! step, on a counter every posting of the batch shares — a plain add, not
//! a locked one: the simulator runs on one thread, so a posting is neither
//! `Send` nor `Sync` — and a posting taken
//! out of its list (a query reply, a cache entry, a free-standing
//! `postings_for_rows` result) still reads everything it needs through
//! itself. Size accounting follows the paper's wire format: an
//! instance-gram posting ships `(oid, A, q)` (Algorithm 2 reads the gram
//! from component 3), a schema-gram posting ships `(oid, q_A, v)` (the gram
//! in component 2, the full value retained).

use crate::slab::{GramSpan, TripleRef, TripleSlab, NO_CHARS};
use crate::triple::{AttrName, Value};
use sqo_overlay::peer::Item;
use std::fmt;
use std::rc::Rc;

/// Which base index a base posting belongs to (useful for storage-overhead
/// accounting; retrieval tells them apart by key family already).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseKind {
    Oid,
    AttrValue,
    Value,
}

/// What a posting is an entry of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostingKind {
    /// Full triple under `key(oid)`, `key(A#v)` or `key(v)`.
    Base(BaseKind),
    /// Instance-level gram posting under `key(A # gram)`: conceptually
    /// `(oid, A, gram)` plus the positional-filter payload. With
    /// `carries_value` the posting additionally ships the complete value
    /// (§4's "storing complete strings together with q-grams" suggestion:
    /// bigger postings, but candidates can be verified before any object
    /// fetch).
    InstanceGram { carries_value: bool },
    /// Schema-level gram posting under `key(gram)`: conceptually
    /// `(oid, gram_of_A, v)` plus the position of the gram in the name.
    SchemaGram,
    /// String value shorter than q, under the short-value family.
    ShortValue,
    /// Attribute name shorter than q, under the short-attr family.
    ShortAttr,
}

impl PostingKind {
    /// Whether a posting of this kind carries a q-gram.
    pub(crate) fn has_gram(self) -> bool {
        matches!(self, PostingKind::InstanceGram { .. } | PostingKind::SchemaGram)
    }

    /// The kind in the one byte a posting keeps it in (the enum itself
    /// takes two).
    fn code(self) -> u8 {
        match self {
            PostingKind::Base(BaseKind::Oid) => 0,
            PostingKind::Base(BaseKind::AttrValue) => 1,
            PostingKind::Base(BaseKind::Value) => 2,
            PostingKind::InstanceGram { carries_value: false } => 3,
            PostingKind::InstanceGram { carries_value: true } => 4,
            PostingKind::SchemaGram => 5,
            PostingKind::ShortValue => 6,
            PostingKind::ShortAttr => 7,
        }
    }

    /// The kind [`Self::code`] gave `code`.
    fn of_code(code: u8) -> Self {
        match code {
            0 => PostingKind::Base(BaseKind::Oid),
            1 => PostingKind::Base(BaseKind::AttrValue),
            2 => PostingKind::Base(BaseKind::Value),
            3 => PostingKind::InstanceGram { carries_value: false },
            4 => PostingKind::InstanceGram { carries_value: true },
            5 => PostingKind::SchemaGram,
            6 => PostingKind::ShortValue,
            // 7: no other code is ever made.
            _ => PostingKind::ShortAttr,
        }
    }
}

/// One stored index entry. See the [module docs](self) for the layout.
#[derive(Clone)]
pub struct Posting {
    pub(crate) slab: Rc<TripleSlab>,
    pub(crate) index: u32,
    /// With a gram: the gram's character offset in its source. Without:
    /// the value's length in characters, [`NO_CHARS`] for a number.
    pos_or_chars: u32,
    /// With a gram: where it starts in the arena. Without: the attribute's
    /// id in the slab's name table.
    gram_off_or_attr: u32,
    /// With a gram: its length in bytes. Without: 0.
    gram_len: u16,
    /// [`PostingKind::code`].
    kind: u8,
    /// With a gram: the length in chars of the string it was cut from when
    /// that is below [`LONG_SOURCE`], else `LONG_SOURCE` and the record
    /// answers (a value that is no string has none). Without: 0.
    source: u8,
}

/// A gram posting's `source` for a source this long or longer, or for a
/// value that is no string: ask the record.
const LONG_SOURCE: u8 = u8::MAX;

const _: () = assert!(std::mem::size_of::<Posting>() == 24);

impl Posting {
    /// A posting of `kind` for triple `index` of `slab`; the two gram
    /// kinds take their gram and its position. `None` when the index is
    /// out of range, a gram is missing or uncalled for, or its span is not
    /// a stretch of this slab's text.
    pub fn new(
        kind: PostingKind,
        slab: &Rc<TripleSlab>,
        index: u32,
        gram: Option<(GramSpan, u32)>,
    ) -> Option<Posting> {
        let t = slab.get(index)?;
        match gram {
            Some((gram, pos)) if kind.has_gram() => {
                slab.gram_text(gram)?;
                let source = match kind {
                    PostingKind::SchemaGram => Some(t.attr_char_len()),
                    _ => t.char_len(),
                };
                Some(Posting::with_gram(kind, slab, index, gram, pos, source))
            }
            None if !kind.has_gram() => {
                Some(Posting::without_gram(kind, slab, index, t.char_len(), t.attr_id()))
            }
            _ => None,
        }
    }

    /// [`Posting::new`] for a gram kind, for a caller that read `index`,
    /// `gram` and the length in chars of the gram's source (the value, or
    /// at schema level the name) off `slab` itself.
    pub(crate) fn with_gram(
        kind: PostingKind,
        slab: &Rc<TripleSlab>,
        index: u32,
        gram: GramSpan,
        pos: u32,
        source: Option<usize>,
    ) -> Posting {
        debug_assert!(kind.has_gram());
        debug_assert!(slab.get(index).is_some() && slab.gram_text(gram).is_some());
        let short = source.and_then(|len| u8::try_from(len).ok()).filter(|len| *len < LONG_SOURCE);
        let posting = Posting {
            slab: Rc::clone(slab),
            index,
            pos_or_chars: pos,
            gram_off_or_attr: gram.off,
            gram_len: gram.len,
            kind: kind.code(),
            source: short.unwrap_or(LONG_SOURCE),
        };
        debug_assert_eq!(posting.source_len(), source, "the source's length is its record's");
        posting
    }

    /// [`Posting::new`] for a kind without a gram, for a caller that read
    /// the triple's char count and attribute id off its record itself.
    pub(crate) fn without_gram(
        kind: PostingKind,
        slab: &Rc<TripleSlab>,
        index: u32,
        chars: Option<usize>,
        attr: u32,
    ) -> Posting {
        debug_assert!(!kind.has_gram());
        debug_assert!(slab
            .get(index)
            .is_some_and(|t| (t.char_len(), t.attr_id()) == (chars, attr)));
        Posting {
            slab: Rc::clone(slab),
            index,
            // The record's count, which is below `NO_CHARS`.
            pos_or_chars: chars.map_or(NO_CHARS, |c| c as u32),
            gram_off_or_attr: attr,
            gram_len: 0,
            kind: kind.code(),
            source: 0,
        }
    }

    pub(crate) fn gram_span(&self) -> GramSpan {
        if self.kind().has_gram() {
            GramSpan { off: self.gram_off_or_attr, len: self.gram_len }
        } else {
            GramSpan::default()
        }
    }

    #[inline]
    pub fn kind(&self) -> PostingKind {
        PostingKind::of_code(self.kind)
    }

    /// The underlying triple.
    pub fn triple(&self) -> TripleRef<'_> {
        self.slab.triple(self.index)
    }

    /// The slab the triple lies in, and its index there: the identity of
    /// the stored triple, which postings cut from one triple share.
    pub fn triple_id(&self) -> (&Rc<TripleSlab>, u32) {
        (&self.slab, self.index)
    }

    /// Object id of the underlying triple.
    pub fn oid(&self) -> &str {
        self.triple().oid()
    }

    /// The number of the triple's object ([`crate::objects`]): read off
    /// its record, no oid is.
    pub fn object(&self) -> u32 {
        self.triple().object()
    }

    /// The gram's text; empty for a posting without one.
    pub fn gram(&self) -> &str {
        self.slab.gram_text(self.gram_span()).expect("checked when the posting was made")
    }

    /// Character offset of the gram in the string it was cut from; 0
    /// without a gram.
    pub fn pos(&self) -> u32 {
        if self.kind().has_gram() {
            self.pos_or_chars
        } else {
            0
        }
    }

    /// Length in characters of the triple's value; `None` for a number. A
    /// posting without a gram answers from itself, an instance gram as
    /// [`Self::source_len`], a schema gram from its record — no text is
    /// read either way.
    #[inline]
    pub fn char_len(&self) -> Option<usize> {
        match self.kind() {
            PostingKind::InstanceGram { .. } => self.source_len(),
            PostingKind::SchemaGram => self.triple().char_len(),
            _ => (self.pos_or_chars != NO_CHARS).then_some(self.pos_or_chars as usize),
        }
    }

    /// The id of the triple's attribute in its slab's name table: inline
    /// in a posting without a gram, its record's for a gram posting.
    #[inline]
    pub fn attr_id(&self) -> u32 {
        if self.kind().has_gram() {
            self.triple().attr_id()
        } else {
            self.gram_off_or_attr
        }
    }

    /// Whether `other` carries the same gram. Postings of one slab settle
    /// that on their spans; only across slabs is text compared.
    pub fn same_gram(&self, other: &Posting) -> bool {
        (Rc::ptr_eq(&self.slab, &other.slab) && self.gram_span() == other.gram_span())
            || self.gram() == other.gram()
    }

    /// Length in characters of the string this posting's gram was drawn
    /// from (the `l(q')` of Algorithm 2's length filter): the value for
    /// instance grams, the attribute name for schema grams. Inline for a
    /// source shorter than 255 chars, the record's otherwise — no text is
    /// read.
    #[inline]
    pub fn source_len(&self) -> Option<usize> {
        if self.kind().has_gram() && self.source != LONG_SOURCE {
            return Some(self.source as usize);
        }
        match self.kind() {
            PostingKind::InstanceGram { .. } => self.triple().char_len(),
            PostingKind::SchemaGram => Some(self.triple().attr_char_len()),
            _ => None,
        }
    }

    /// Convenience: the base triple if this is a base posting.
    pub fn as_base(&self) -> Option<TripleRef<'_>> {
        matches!(self.kind(), PostingKind::Base(_)).then(|| self.triple())
    }
}

/// The rank of a gram posting whose source is `len` chars long and whose
/// gram starts at char `pos`: by length, then position.
#[inline]
pub fn gram_rank(len: u32, pos: u32) -> u64 {
    (u64::from(len) << 32) | u64::from(pos)
}

/// The inverse of [`gram_rank`]: a rank's (source length, position).
#[inline]
pub fn rank_parts(rank: u64) -> (u32, u32) {
    ((rank >> 32) as u32, rank as u32)
}

impl Item for Posting {
    /// A gram posting ranks by the length in chars of the string its gram
    /// was cut from, then by the gram's position there — the two numbers
    /// Algorithm 2's length and position filters test — so a gram key's
    /// list is a sequence of windows, one per length, each ascending by
    /// position. An instance gram of a value that is no string has no
    /// source length and ranks behind every one that has. Every other
    /// posting ranks 0: its key keeps publication order.
    fn rank(&self) -> u64 {
        if !self.kind().has_gram() {
            return 0;
        }
        let len = self.source_len().map_or(NO_CHARS, |len| len as u32);
        gram_rank(len, self.pos_or_chars)
    }

    fn size_bytes(&self) -> usize {
        wire_size(self.triple(), self.kind(), self.gram_len.into())
    }
}

/// What a posting of `kind` cut from `t`, with a gram of `gram_len`
/// bytes, ships: [`Item::size_bytes`], for a caller that holds the record
/// but no posting yet (the publication pipeline).
pub(crate) fn wire_size(t: TripleRef<'_>, kind: PostingKind, gram_len: usize) -> usize {
    match kind {
        PostingKind::Base(_) | PostingKind::ShortValue | PostingKind::ShortAttr => t.repr_len(),
        // (oid, A, q) + pos [+ the full value when carried]
        PostingKind::InstanceGram { carries_value } => {
            let value = t.value_repr_len();
            t.repr_len() - value + gram_len + 4 + if carries_value { value } else { 0 }
        }
        // (oid, q_A, v) + pos
        PostingKind::SchemaGram => t.oid_len() + gram_len + t.value_repr_len() + 4 + 12,
    }
}

/// Equality on the logical content: postings of different slabs — a built
/// world's and its decoded twin's — are equal when kind, position, gram and
/// triple read the same.
impl PartialEq for Posting {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.pos() == other.pos()
            && self.same_gram(other)
            && self.triple() == other.triple()
    }
}

impl fmt::Debug for Posting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Posting");
        s.field("kind", &self.kind()).field("triple", &self.triple());
        if !self.gram().is_empty() {
            s.field("gram", &self.gram()).field("pos", &self.pos());
        }
        s.finish()
    }
}

/// A reassembled horizontal tuple: an oid with all its attribute values,
/// rebuilt from the base triples stored under `key(oid)` (the "build
/// complete object o from T′" step of Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    pub oid: String,
    pub fields: Vec<(AttrName, Value)>,
}

impl Object {
    /// First value of attribute `attr`.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.fields.iter().find(|(a, _)| a.as_str() == attr).map(|(_, v)| v)
    }

    /// Serialized size estimate.
    pub fn repr_len(&self) -> usize {
        self.oid.len()
            + self.fields.iter().map(|(a, v)| a.as_str().len() + v.repr_len() + 8).sum::<usize>()
    }
}

/// An object as its oid's base postings make it up: one 24-byte handle per
/// field, no text copied. What an object fetch ships and an operator's
/// object cache keeps; the owned [`Object`] is built, by
/// [`Fetched::materialize`](crate::objects::Fetched::materialize), only
/// when a caller reads a row. The oid is the
/// caller's: every cache keys its handles by it. An object of one field —
/// every object of a one-attribute world — holds its handle inline, so
/// gathering it allocates nothing; two fields or more are a list.
#[derive(Debug, Clone)]
pub struct ObjectPostings(Fields);

/// The fields of an [`ObjectPostings`], in order.
#[derive(Debug, Clone)]
enum Fields {
    /// Exactly one field, inline.
    One(Posting),
    /// No field, or two and more.
    Many(Vec<Posting>),
}

impl Fields {
    fn as_slice(&self) -> &[Posting] {
        match self {
            Fields::One(p) => std::slice::from_ref(p),
            Fields::Many(ps) => ps,
        }
    }

    /// Append `p`: the first field stays inline, a second moves both into
    /// a list.
    fn push(&mut self, p: Posting) {
        *self = match std::mem::replace(self, Fields::Many(Vec::new())) {
            Fields::Many(ps) if ps.is_empty() => Fields::One(p),
            Fields::One(first) => Fields::Many(vec![first, p]),
            Fields::Many(mut ps) => {
                ps.push(p);
                Fields::Many(ps)
            }
        };
    }
}

impl ObjectPostings {
    /// The fields of `oid` among `postings`, borrowed — a stored run is
    /// read as it lies. Postings for other oids and postings of no base
    /// index are ignored; duplicate (attr, value) pairs (replica returns)
    /// collapse to the first; the fields are ordered by attribute name,
    /// equal names in arrival order.
    pub fn gather<'a>(oid: &str, postings: impl IntoIterator<Item = &'a Posting>) -> Self {
        let mut fields = Fields::Many(Vec::new());
        for p in postings {
            let Some(t) = p.as_base() else { continue };
            let seen = |f: &Posting| {
                let f = f.triple();
                f.attr() == t.attr() && f.value() == t.value()
            };
            if t.oid() == oid && !fields.as_slice().iter().any(seen) {
                fields.push(p.clone());
            }
        }
        if let Fields::Many(ps) = &mut fields {
            ps.sort_by(|a, b| a.triple().attr().cmp(b.triple().attr()));
        }
        Self(fields)
    }

    /// The fields, in order.
    pub(crate) fn postings(&self) -> &[Posting] {
        self.0.as_slice()
    }

    /// [`Object::repr_len`] of the materialized object — what a reply
    /// carrying it is charged — without materializing it.
    pub fn repr_len(&self, oid: &str) -> usize {
        Self::payload(oid, self.postings())
    }

    /// [`Self::repr_len`] of what [`Self::gather`] makes of `items`,
    /// without gathering it: nothing is allocated.
    pub fn payload(oid: &str, items: &[Posting]) -> usize {
        let fields = fields_of(oid, items);
        oid.len()
            + fields.map(|t| t.attr().as_str().len() + t.value().repr_len() + 8).sum::<usize>()
    }
}

/// The fields of `oid` among `items`, lent, in arrival order: what
/// [`ObjectPostings::gather`] keeps, before it orders them. A field counts
/// unless an earlier one of `oid` has its attribute and value.
pub(crate) fn fields_of<'a>(
    oid: &'a str,
    items: &'a [Posting],
) -> impl Iterator<Item = TripleRef<'a>> + 'a {
    let field = move |i: usize| items[i].as_base().filter(|t| t.oid() == oid);
    (0..items.len()).filter_map(move |i| {
        let t = field(i)?;
        let mut earlier = (0..i).filter_map(field);
        (!earlier.any(|f| f.attr() == t.attr() && f.value() == t.value())).then_some(t)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::Fetched;
    use crate::triple::Triple;

    fn slab(oid: &str, attr: &str, v: impl Into<Value>) -> Rc<TripleSlab> {
        TripleSlab::of(&[Triple::new(oid, attr, v)])
    }

    fn base(slab: &Rc<TripleSlab>, index: u32) -> Posting {
        Posting::new(PostingKind::Base(BaseKind::Oid), slab, index, None).expect("in range")
    }

    #[test]
    fn posting_sizes_reflect_payload() {
        let tr = slab("car:1", "name", "BMW 320d");
        assert_eq!(base(&tr, 0).size_bytes(), tr.triple(0).repr_len());
        let at = Some((tr.value_gram(0, 4, "320").expect("the gram"), 4));
        let gram =
            Posting::new(PostingKind::InstanceGram { carries_value: false }, &tr, 0, at).unwrap();
        // oid(5) + attr(4) + gram(3) + 4 + 12
        assert_eq!(gram.size_bytes(), 5 + 4 + 3 + 4 + 12);
        let carrying =
            Posting::new(PostingKind::InstanceGram { carries_value: true }, &tr, 0, at).unwrap();
        // + the full value ("BMW 320d" = 8 bytes)
        assert_eq!(carrying.size_bytes(), gram.size_bytes() + 8);
        let at = Some((tr.name_gram(0, 0, "nam").expect("the gram"), 0));
        let sg = Posting::new(PostingKind::SchemaGram, &tr, 0, at).unwrap();
        // oid(5) + gram(3) + value(8) + 4 + 12
        assert_eq!(sg.size_bytes(), 5 + 3 + 8 + 4 + 12);
        assert_eq!((sg.gram(), sg.pos()), ("nam", 0));
    }

    #[test]
    fn source_len_is_value_for_instance_and_name_for_schema() {
        let tr = slab("o", "name", "abcdef");
        let at = Some((tr.value_gram(0, 0, "abc").unwrap(), 0));
        let ig =
            Posting::new(PostingKind::InstanceGram { carries_value: false }, &tr, 0, at).unwrap();
        assert_eq!(ig.source_len(), Some(6));
        let at = Some((tr.name_gram(0, 0, "nam").unwrap(), 0));
        let sg = Posting::new(PostingKind::SchemaGram, &tr, 0, at).unwrap();
        assert_eq!(sg.source_len(), Some(4));
        assert_eq!(base(&tr, 0).source_len(), None);
    }

    #[test]
    fn a_posting_without_a_gram_answers_count_and_attribute_from_itself() {
        let slab = TripleSlab::of(&[
            Triple::new("o", "name", "日本語x"),
            Triple::new("o", "hp", 190),
            Triple::new("p", "name", ""),
        ]);
        let kinds = [PostingKind::Base(BaseKind::Value), PostingKind::ShortValue];
        for (index, chars, attr) in [(0, Some(4), 0), (1, None, 1), (2, Some(0), 0)] {
            for kind in kinds {
                let p = Posting::new(kind, &slab, index, None).unwrap();
                assert_eq!((p.char_len(), p.attr_id(), p.pos(), p.gram()), (chars, attr, 0, ""));
            }
        }
        let at = Some((slab.value_gram(0, 1, "本語").unwrap(), 1));
        let gram =
            Posting::new(PostingKind::InstanceGram { carries_value: false }, &slab, 0, at).unwrap();
        assert_eq!((gram.char_len(), gram.attr_id(), gram.pos()), (Some(4), 0, 1));
    }

    #[test]
    fn the_constructor_refuses_what_does_not_fit_the_slab() {
        let tr = slab("o", "name", "日本語");
        let gram = tr.value_gram(0, 1, "本").unwrap();
        let instance = PostingKind::InstanceGram { carries_value: false };
        assert!(Posting::new(instance, &tr, 0, Some((gram, 1))).is_some());
        assert!(Posting::new(instance, &tr, 1, Some((gram, 1))).is_none(), "no such triple");
        assert!(Posting::new(instance, &tr, 0, None).is_none(), "a gram posting has a gram");
        assert!(Posting::new(PostingKind::ShortAttr, &tr, 0, Some((gram, 1))).is_none());
        let split = GramSpan { off: gram.off + 1, len: gram.len };
        assert!(Posting::new(instance, &tr, 0, Some((split, 1))).is_none(), "off a boundary");
    }

    #[test]
    fn equality_reads_through_the_slab_and_sees_every_field() {
        let (a, b) = (slab("o", "name", "abcdef"), slab("o", "name", "abcdef"));
        let instance = |slab: &Rc<TripleSlab>, pos: u32, gram: &str, carries_value: bool| {
            let at = Some((slab.value_gram(0, pos, gram).unwrap(), pos));
            Posting::new(PostingKind::InstanceGram { carries_value }, slab, 0, at).unwrap()
        };
        assert_eq!(instance(&a, 1, "bcd", false), instance(&b, 1, "bcd", false));
        assert_ne!(instance(&a, 1, "bcd", false), instance(&b, 1, "bcd", true), "the flag");
        assert_ne!(instance(&a, 1, "bcd", false), instance(&b, 2, "cde", false));
        assert_ne!(instance(&a, 1, "bcd", false), instance(&b, 1, "bc", false), "the gram");
        assert_ne!(base(&a, 0), base(&slab("o", "name", "abcdeg"), 0), "the triple");
        let short = Posting::new(PostingKind::ShortValue, &a, 0, None).unwrap();
        assert_ne!(base(&a, 0), short, "the kind");
    }

    #[test]
    fn object_assembly_dedups_and_filters() {
        let slab = TripleSlab::of(&[
            Triple::new("car:1", "name", "BMW"),
            Triple::new("car:1", "hp", 190),
            Triple::new("car:1", "name", "BMW"),  // replica dup
            Triple::new("car:2", "name", "Audi"), // other oid
        ]);
        let ps: Vec<Posting> = (0..4).map(|i| base(&slab, i)).collect();
        let o = Fetched::Gathered(ObjectPostings::gather("car:1", &ps)).materialize("car:1");
        assert_eq!(o.fields.len(), 2);
        assert_eq!(o.get("name"), Some(&Value::from("BMW")));
        assert_eq!(o.get("hp"), Some(&Value::from(190)));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn multivalued_attributes_survive_assembly() {
        // The vertical scheme allows several triples with the same attribute.
        let slab =
            TripleSlab::of(&[Triple::new("o", "tag", "red"), Triple::new("o", "tag", "fast")]);
        let ps = [base(&slab, 0), base(&slab, 1)];
        let o = Fetched::Gathered(ObjectPostings::gather("o", &ps)).materialize("o");
        assert_eq!(o.fields.len(), 2);
    }
}
