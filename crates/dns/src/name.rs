//! Domain names and the compression codec (paper §4.2).
//!
//! "A further example is DNS label compression, notoriously tricky to get
//! right as previously seen label fragments must be carefully tracked. Our
//! initial implementation used a naive mutable hashtable, which we then
//! replaced with a functional map using a customised ordering function
//! that first tests the size of the labels before comparing their
//! contents. This gave around a 20% speedup, as well as securing against
//! the denial-of-service attack where clients deliberately cause hash
//! collisions."
//!
//! Both compression-table strategies are provided so the ablation bench
//! can compare them: [`CompressionTable::Hash`] (the naive hashtable) and
//! [`CompressionTable::SizeOrderedMap`] (the ordered map with the
//! size-first comparator — collision-proof by construction).
//!
//! A [`DnsName`] is one buffer: its labels as they go on the wire,
//! lower-cased. Every suffix of a name is therefore a tail of that buffer,
//! and that borrowed tail is what the compression tables are keyed on —
//! encoding a name clones nothing and allocates nothing per label.

use std::cmp::Ordering;
use std::collections::{btree_map, hash_map, BTreeMap, HashMap};
use std::fmt;

/// Maximum encoded name length (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum label length.
pub const MAX_LABEL_LEN: usize = 63;

/// A fully-qualified, case-normalised domain name.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DnsName {
    /// `len, bytes…` per label, most-specific first, lower-cased, without
    /// the root's terminating zero: at most `MAX_NAME_LEN - 1` bytes,
    /// allocated to size (empty, and unallocated, for the root).
    wire: Box<[u8]>,
}

/// Errors from name handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameError {
    /// A label exceeds 63 bytes or the name exceeds 255.
    TooLong,
    /// Empty label / malformed dotted string.
    Malformed,
    /// Wire decoding ran out of bytes or looped.
    BadWire,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            NameError::TooLong => "name or label too long",
            NameError::Malformed => "malformed name",
            NameError::BadWire => "malformed wire-format name",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for NameError {}

/// The labels of a name, most-specific first, borrowed from its buffer.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at(usize::from(len));
        self.rest = rest;
        Some(label)
    }
}

/// A name under construction on the stack: labels are appended
/// lower-cased, and only the finished name is allocated, to size.
struct Scratch {
    wire: [u8; MAX_NAME_LEN],
    len: usize,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            wire: [0; MAX_NAME_LEN],
            len: 0,
        }
    }

    /// Appends one label of 1..=63 bytes; `false` (nothing written) if the
    /// name would then exceed [`MAX_NAME_LEN`] with its root byte.
    fn push(&mut self, label: &[u8]) -> bool {
        let end = self.len + 1 + label.len();
        if end + 1 > MAX_NAME_LEN {
            return false;
        }
        self.wire[self.len] = label.len() as u8;
        self.wire[self.len + 1..end].copy_from_slice(label);
        self.wire[self.len + 1..end].make_ascii_lowercase();
        self.len = end;
        true
    }

    fn finish(&self) -> DnsName {
        DnsName {
            wire: self.wire[..self.len].into(),
        }
    }
}

impl DnsName {
    /// The root name.
    pub fn root() -> DnsName {
        DnsName::default()
    }

    /// Parses `www.example.org` (trailing dot optional), lower-casing.
    ///
    /// # Errors
    ///
    /// [`NameError::Malformed`] / [`NameError::TooLong`].
    pub fn parse(s: &str) -> Result<DnsName, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(DnsName::root());
        }
        let mut name = Scratch::new();
        let mut fits = true;
        for part in s.split('.') {
            if part.is_empty() {
                return Err(NameError::Malformed);
            }
            if part.len() > MAX_LABEL_LEN {
                return Err(NameError::TooLong);
            }
            // An over-long name is reported only once every label has
            // been looked at: a malformed label later on wins.
            fits = fits && name.push(part.as_bytes());
        }
        if !fits {
            return Err(NameError::TooLong);
        }
        Ok(name.finish())
    }

    /// The labels, most-specific first.
    pub fn labels(&self) -> Labels<'_> {
        Labels { rest: &self.wire }
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The wire-format labels (lower-cased, no terminating zero).
    pub(crate) fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// Adopts labels already in the form [`DnsName::wire`] returns.
    pub(crate) fn from_wire(wire: &[u8]) -> DnsName {
        debug_assert!(wire.len() < MAX_NAME_LEN && Labels { rest: wire }.all(|l| !l.is_empty()));
        DnsName { wire: wire.into() }
    }

    /// The name with its first label removed (parent domain).
    pub fn parent(&self) -> Option<DnsName> {
        let first = self.labels().next()?;
        Some(DnsName {
            wire: self.wire[1 + first.len()..].into(),
        })
    }

    /// Prepends a label.
    ///
    /// # Errors
    ///
    /// [`NameError::TooLong`].
    pub fn child(&self, label: &str) -> Result<DnsName, NameError> {
        if label.is_empty() || label.len() > MAX_LABEL_LEN {
            return Err(NameError::TooLong);
        }
        if 1 + label.len() + self.wire.len() + 1 > MAX_NAME_LEN {
            return Err(NameError::TooLong);
        }
        let mut wire = Vec::with_capacity(1 + label.len() + self.wire.len());
        wire.push(label.len() as u8);
        wire.extend_from_slice(label.as_bytes());
        wire[1..].make_ascii_lowercase();
        wire.extend_from_slice(&self.wire);
        Ok(DnsName {
            wire: wire.into_boxed_slice(),
        })
    }

    /// Whether `self` is `other` or a subdomain of it.
    pub fn is_subdomain_of(&self, other: &DnsName) -> bool {
        // A tail of the buffer is a suffix of the name only if it starts
        // on a label boundary, so walk to the one at the right distance.
        let mut labels = self.labels();
        while labels.rest.len() > other.wire.len() {
            labels.next();
        }
        labels.rest == &*other.wire
    }

    /// Decodes a wire-format name at `pos` in `msg`, following compression
    /// pointers; returns the name and the length consumed *at the original
    /// position*.
    ///
    /// # Errors
    ///
    /// [`NameError::BadWire`] on truncation, pointer loops, or overlong
    /// names.
    pub fn decode(msg: &[u8], pos: usize) -> Result<(DnsName, usize), NameError> {
        let mut name = Scratch::new();
        let mut at = pos;
        let mut consumed = 0usize;
        let mut jumped = false;
        let mut hops = 0;
        loop {
            let len = *msg.get(at).ok_or(NameError::BadWire)? as usize;
            if len & 0xC0 == 0xC0 {
                // Compression pointer.
                let lo = *msg.get(at + 1).ok_or(NameError::BadWire)? as usize;
                let target = ((len & 0x3F) << 8) | lo;
                if !jumped {
                    consumed = at + 2 - pos;
                    jumped = true;
                }
                if target >= at {
                    return Err(NameError::BadWire); // forward pointers are illegal
                }
                at = target;
                hops += 1;
                if hops > 32 {
                    return Err(NameError::BadWire);
                }
            } else if len == 0 {
                if !jumped {
                    consumed = at + 1 - pos;
                }
                return Ok((name.finish(), consumed));
            } else if len <= MAX_LABEL_LEN {
                let label = msg.get(at + 1..at + 1 + len).ok_or(NameError::BadWire)?;
                if !name.push(label) {
                    return Err(NameError::BadWire);
                }
                at += 1 + len;
            } else {
                return Err(NameError::BadWire);
            }
        }
    }

    /// Encodes the name at the current end of `out`, using `table` for
    /// compression. The table borrows the name's suffixes, so it must not
    /// outlive the names encoded through it.
    pub fn encode<'a>(&'a self, out: &mut Vec<u8>, table: &mut CompressionTable<'a>) {
        let mut labels = self.labels();
        loop {
            let suffix = labels.rest;
            let Some(label) = labels.next() else {
                out.push(0);
                return;
            };
            if let Some(offset) = table.offset_or_insert(suffix, out.len()) {
                out.push(0xC0 | (offset >> 8) as u8);
                out.push(offset as u8);
                return;
            }
            out.extend_from_slice(&suffix[..1 + label.len()]);
        }
    }

    /// Encodes without compression (for keys and tests).
    pub fn encode_uncompressed(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire.len() + 1);
        out.extend_from_slice(&self.wire);
        out.push(0);
        out
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.wire.is_empty() {
            return f.write_str(".");
        }
        for (i, label) in self.labels().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(&String::from_utf8_lossy(label))?;
        }
        Ok(())
    }
}

impl fmt::Debug for DnsName {
    /// `DnsName { labels: [[119, 119, 119], …] }`: the labels as lists of
    /// bytes, which appliance transcripts print and diff.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct List<'a>(Labels<'a>);
        impl fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.clone()).finish()
            }
        }
        f.debug_struct("DnsName")
            .field("labels", &List(self.labels()))
            .finish()
    }
}

impl PartialOrd for DnsName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(Ord::cmp(self, other))
    }
}

impl Ord for DnsName {
    /// Label by label, most-specific first, each label bytewise.
    fn cmp(&self, other: &Self) -> Ordering {
        self.labels().cmp(other.labels())
    }
}

/// A name suffix ordered by the size-first comparator from §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeFirstKey<'a>(&'a [u8]);

impl PartialOrd for SizeFirstKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(Ord::cmp(self, other))
    }
}

impl Ord for SizeFirstKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // "first tests the size of the labels before comparing their
        // contents" — cheap rejections for the common case, and no hash
        // function for attackers to collide.
        self.0
            .len()
            .cmp(&other.0.len())
            .then_with(|| self.0.cmp(other.0))
    }
}

/// The compression table: maps the suffixes of the names encoded so far —
/// borrowed from those names — to the message offset each was first
/// written at.
#[derive(Debug)]
pub enum CompressionTable<'a> {
    /// The paper's initial "naive mutable hashtable".
    Hash(HashMap<&'a [u8], u16>),
    /// The replacement: an ordered map with the size-first comparator.
    SizeOrderedMap(BTreeMap<SizeFirstKey<'a>, u16>),
}

impl<'a> CompressionTable<'a> {
    /// A hashtable-backed table.
    pub fn hash() -> CompressionTable<'a> {
        CompressionTable::Hash(HashMap::new())
    }

    /// The size-first ordered-map table (default).
    pub fn size_ordered() -> CompressionTable<'a> {
        CompressionTable::SizeOrderedMap(BTreeMap::new())
    }

    /// The offset `suffix` was first written at; if it is new, remembers
    /// `here` for it — provided a 14-bit pointer can reach that far — and
    /// returns `None`.
    fn offset_or_insert(&mut self, suffix: &'a [u8], here: usize) -> Option<u16> {
        let here = u16::try_from(here).ok().filter(|&h| h <= 0x3FFF);
        match self {
            CompressionTable::Hash(m) => match m.entry(suffix) {
                hash_map::Entry::Occupied(e) => return Some(*e.get()),
                hash_map::Entry::Vacant(e) => {
                    if let Some(here) = here {
                        e.insert(here);
                    }
                }
            },
            CompressionTable::SizeOrderedMap(m) => match m.entry(SizeFirstKey(suffix)) {
                btree_map::Entry::Occupied(e) => return Some(*e.get()),
                btree_map::Entry::Vacant(e) => {
                    if let Some(here) = here {
                        e.insert(here);
                    }
                }
            },
        }
        None
    }
}

impl Default for CompressionTable<'_> {
    fn default() -> Self {
        CompressionTable::size_ordered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    #[test]
    fn parse_and_display() {
        let n = DnsName::parse("WWW.Example.ORG.").unwrap();
        assert_eq!(n.to_string(), "www.example.org");
        assert_eq!(n.label_count(), 3);
        assert_eq!(DnsName::parse("").unwrap(), DnsName::root());
        assert!(DnsName::parse("a..b").is_err());
        assert!(DnsName::parse(&"x".repeat(64)).is_err());
    }

    #[test]
    fn subdomain_relationships() {
        let org = DnsName::parse("example.org").unwrap();
        let www = DnsName::parse("www.example.org").unwrap();
        assert!(www.is_subdomain_of(&org));
        assert!(org.is_subdomain_of(&org));
        assert!(!org.is_subdomain_of(&www));
        assert!(www.is_subdomain_of(&DnsName::root()));
        assert_eq!(www.parent().unwrap(), org);
        assert_eq!(DnsName::root().parent(), None);
    }

    #[test]
    fn a_buffer_tail_off_a_label_boundary_is_not_a_suffix() {
        // "a" is the last two bytes of the one label "\x01a"'s buffer.
        let a = DnsName::parse("a").unwrap();
        let tricky = DnsName::root().child("\u{1}a").unwrap();
        assert!(tricky.wire().ends_with(a.wire()));
        assert!(!tricky.is_subdomain_of(&a));
    }

    #[test]
    fn debug_lists_the_labels_as_bytes() {
        let n = DnsName::parse("ab.c").unwrap();
        assert_eq!(format!("{n:?}"), "DnsName { labels: [[97, 98], [99]] }");
        assert_eq!(format!("{:?}", DnsName::root()), "DnsName { labels: [] }");
    }

    #[test]
    fn names_stop_at_255_bytes_however_they_are_built() {
        let label = "x".repeat(MAX_LABEL_LEN);
        // Three 63-byte labels and one of 61: 3*64 + 62 + root = 255.
        let longest = format!("{label}.{label}.{label}.{}", "y".repeat(61));
        let name = DnsName::parse(&longest).unwrap();
        assert_eq!(name.encode_uncompressed().len(), MAX_NAME_LEN);
        assert_eq!(name.child("z").err(), Some(NameError::TooLong));
        let over = format!("{label}.{label}.{label}.{}", "y".repeat(62));
        assert_eq!(DnsName::parse(&over).err(), Some(NameError::TooLong));
        assert_eq!(
            DnsName::parse(&format!("{over}..")).err(),
            Some(NameError::Malformed),
            "a malformed label is reported before the total length"
        );
    }

    #[test]
    fn encode_decode_uncompressed() {
        let n = DnsName::parse("mail.example.org").unwrap();
        let wire = n.encode_uncompressed();
        let (decoded, used) = DnsName::decode(&wire, 0).unwrap();
        assert_eq!(decoded, n);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn compression_shares_suffixes() {
        let mut out = Vec::new();
        let a = DnsName::parse("www.example.org").unwrap();
        let b = DnsName::parse("mail.example.org").unwrap();
        let mut table = CompressionTable::size_ordered();
        a.encode(&mut out, &mut table);
        let before_b = out.len();
        b.encode(&mut out, &mut table);
        // b should be label "mail" (5 bytes) + 2-byte pointer = 7 bytes.
        assert_eq!(out.len() - before_b, 7, "suffix compressed to a pointer");
        let (da, _) = DnsName::decode(&out, 0).unwrap();
        let (db, _) = DnsName::decode(&out, before_b).unwrap();
        assert_eq!(da, a);
        assert_eq!(db, b);
    }

    #[test]
    fn both_table_flavours_agree() {
        for mk in [CompressionTable::hash as fn() -> _, CompressionTable::size_ordered] {
            let mut out = Vec::new();
            let names = ["a.example.org", "b.example.org", "c.b.example.org"]
                .map(|s| DnsName::parse(s).unwrap());
            let mut table = mk();
            for name in &names {
                name.encode(&mut out, &mut table);
            }
            // Decode everything back.
            let (x, used) = DnsName::decode(&out, 0).unwrap();
            assert_eq!(x.to_string(), "a.example.org");
            let (y, used2) = DnsName::decode(&out, used).unwrap();
            assert_eq!(y.to_string(), "b.example.org");
            let (z, _) = DnsName::decode(&out, used + used2).unwrap();
            assert_eq!(z.to_string(), "c.b.example.org");
        }
    }

    #[test]
    fn pointer_loops_rejected() {
        // A pointer to itself.
        let wire = [0xC0, 0x00];
        assert_eq!(DnsName::decode(&wire, 0).err(), Some(NameError::BadWire));
        // Truncated label.
        let wire2 = [5, b'a', b'b'];
        assert_eq!(DnsName::decode(&wire2, 0).err(), Some(NameError::BadWire));
    }

    mirage_testkit::property! {
        /// Random names round-trip through compression alongside each other.
        fn prop_compressed_round_trip(parts in collection::vec(mirage_testkit::prop::lowercase(1..13), 1..5),
                                      reuse in any::<bool>()) {
            let name = DnsName::parse(&parts.join(".")).unwrap();
            let other = if reuse {
                name.child("extra").unwrap()
            } else {
                DnsName::parse("unrelated.test").unwrap()
            };
            let mut out = Vec::new();
            let mut table = CompressionTable::size_ordered();
            name.encode(&mut out, &mut table);
            let second_at = out.len();
            other.encode(&mut out, &mut table);
            let (d1, _) = DnsName::decode(&out, 0).unwrap();
            let (d2, _) = DnsName::decode(&out, second_at).unwrap();
            assert_eq!(d1, name);
            assert_eq!(d2, other);
        }
    }
}
