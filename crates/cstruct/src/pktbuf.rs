//! The one representation of bytes in flight, with copy accounting.
//!
//! A [`BufMut`] is an exclusively-owned page being filled in (a packet under
//! construction, a block about to be written). Freezing it yields a
//! [`PktBuf`]: an immutable, reference-counted *view* that the device ring,
//! the network stack, TCP reassembly and the application all share by
//! reference. Cloning or slicing a `PktBuf` bumps a refcount; the bytes are
//! never duplicated, and the page returns to its pool when the last view
//! drops — the paper's `Cstruct.sub` over an `Io_page` (§3.4.1), and its
//! "ext I/O data travels by reference" claim (§3.2, Figure 2/4) made into a
//! type.
//!
//! Every operation that *does* duplicate payload bytes in software funnels
//! through [`record_copy`], and every serialisation of payload into a wire
//! frame through [`record_serialize`]. The counters are plain process-wide
//! atomics — no `cfg(feature)` gating — so the benchmarks can assert the
//! zero-copy property instead of merely claiming it (see
//! `benches/micro_zerocopy.rs`, which `scripts/verify.sh` runs).

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::pool::Page;

static COPY_COUNT: AtomicU64 = AtomicU64::new(0);
static COPY_BYTES: AtomicU64 = AtomicU64::new(0);
static SERIALIZE_COUNT: AtomicU64 = AtomicU64::new(0);
static SERIALIZE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the global payload-copy accounting.
///
/// `copies`/`copy_bytes` count software duplications of payload bytes
/// (the thing zero-copy eliminates); `serializes`/`serialize_bytes` count
/// payload written once into an outgoing wire frame (unavoidable — the
/// bytes must reach the ring exactly once). Device-side grant-page reads
/// and writes model DMA and are not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CopyCounters {
    /// Number of software payload copies.
    pub copies: u64,
    /// Bytes duplicated by software copies.
    pub copy_bytes: u64,
    /// Number of payload serialisations into wire frames.
    pub serializes: u64,
    /// Bytes serialised into wire frames.
    pub serialize_bytes: u64,
}

/// Reads the current global copy counters.
pub fn copy_counters() -> CopyCounters {
    CopyCounters {
        copies: COPY_COUNT.load(Ordering::Relaxed),
        copy_bytes: COPY_BYTES.load(Ordering::Relaxed),
        serializes: SERIALIZE_COUNT.load(Ordering::Relaxed),
        serialize_bytes: SERIALIZE_BYTES.load(Ordering::Relaxed),
    }
}

/// Zeroes the global copy counters (benchmark setup).
pub fn reset_copy_counters() {
    COPY_COUNT.store(0, Ordering::Relaxed);
    COPY_BYTES.store(0, Ordering::Relaxed);
    SERIALIZE_COUNT.store(0, Ordering::Relaxed);
    SERIALIZE_BYTES.store(0, Ordering::Relaxed);
}

/// Records one software copy of `bytes` payload bytes.
pub fn record_copy(bytes: usize) {
    COPY_COUNT.fetch_add(1, Ordering::Relaxed);
    COPY_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Records payload bytes written once into an outgoing wire frame.
pub fn record_serialize(bytes: usize) {
    SERIALIZE_COUNT.fetch_add(1, Ordering::Relaxed);
    SERIALIZE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// An exclusively-owned, writable I/O page.
///
/// Produced by [`crate::PagePool::alloc`]; turned into shareable read-only
/// views by [`BufMut::freeze`]. Dropping it without freezing returns the
/// page to its pool immediately.
pub struct BufMut {
    page: Page,
    len: usize,
}

impl fmt::Debug for BufMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BufMut[{} of {} bytes]", self.len, self.page.data.len())
    }
}

impl BufMut {
    pub(crate) fn new(page: Page) -> BufMut {
        let len = page.data.len();
        BufMut { page, len }
    }

    /// Full writable contents of the page.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.page.dirty = self.page.data.len();
        &mut self.page.data
    }

    /// The first `len` bytes, to write in place; [`BufMut::freeze`] then
    /// exposes exactly them. Unlike [`BufMut::as_mut_slice`], the page
    /// goes back to its pool with only these bytes to clear.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the page capacity.
    pub fn prefix_mut(&mut self, len: usize) -> &mut [u8] {
        assert!(len <= self.page.data.len(), "prefix beyond page capacity");
        self.len = len;
        self.page.dirty = self.page.dirty.max(len);
        &mut self.page.data[..len]
    }

    /// Read-only contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.page.data
    }

    /// Restricts the extent that [`BufMut::freeze`] will expose.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the page capacity.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.page.data.len(), "truncate beyond page capacity");
        self.len = len;
    }

    /// Length that will be exposed when frozen.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the exposed extent is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies `src` into the page starting at `offset` and, if the write
    /// extends past the current exposed length, grows it.
    ///
    /// # Panics
    ///
    /// Panics if the write would run past the page capacity.
    pub fn write_at(&mut self, offset: usize, src: &[u8]) {
        let end = offset + src.len();
        assert!(end <= self.page.data.len(), "write beyond page capacity");
        self.page.data[offset..end].copy_from_slice(src);
        self.page.dirty = self.page.dirty.max(end);
        if end > self.len {
            self.len = end;
        }
    }

    /// Seals the page and returns an immutable view over the exposed extent.
    pub fn freeze(self) -> PktBuf {
        PktBuf {
            page: Arc::new(self.page),
            off: 0,
            len: self.len,
        }
    }
}

/// An immutable, reference-counted view over (part of) an I/O page.
///
/// Cheap to clone, cheap to slice, and explicit about the few operations
/// that copy. Slicing produces further views over the same page; the page
/// returns to its pool when the last view drops. Equality is by byte
/// content, so protocol tests can compare packets structurally.
///
/// # Example
///
/// ```
/// use mirage_cstruct::PagePool;
///
/// let pool = PagePool::new(1);
/// let mut page = pool.alloc()?;
/// page.write_at(0, b"headerpayload");
/// page.truncate(13);
/// let buf = page.freeze();
/// let (hdr, payload) = buf.split_at(6);
/// assert_eq!(hdr.as_slice(), b"header");
/// assert_eq!(payload.as_slice(), b"payload");
/// # Ok::<(), mirage_cstruct::PoolExhausted>(())
/// ```
#[derive(Clone)]
pub struct PktBuf {
    page: Arc<Page>,
    off: usize,
    len: usize,
}

impl PktBuf {
    /// An empty buffer: a view of nothing on one page every empty buffer
    /// shares, so making one allocates nothing.
    pub fn empty() -> PktBuf {
        static EMPTY: OnceLock<Arc<Page>> = OnceLock::new();
        PktBuf {
            page: Arc::clone(EMPTY.get_or_init(|| Arc::new(Page::heap(Vec::new())))),
            off: 0,
            len: 0,
        }
    }

    /// Takes ownership of an already-built vector without copying: the
    /// vector itself, spare capacity included, becomes the backing store.
    ///
    /// Used where a packet is assembled with `Vec` machinery (control-plane
    /// builders, HTTP `encode()`): the allocation is adopted, not cloned.
    pub fn from_vec(data: Vec<u8>) -> PktBuf {
        let len = data.len();
        PktBuf {
            page: Arc::new(Page::heap(data)),
            off: 0,
            len,
        }
    }

    /// Builds a buffer by **copying** `data`. Counted.
    pub fn copy_from_slice(data: &[u8]) -> PktBuf {
        record_copy(data.len());
        PktBuf::from_vec(data.to_vec())
    }

    /// The bytes this buffer covers.
    pub fn as_slice(&self) -> &[u8] {
        &self.page.data[self.off..self.off + self.len]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sub-view over `range`, sharing the same backing page — the paper's
    /// `Cstruct.sub`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> PktBuf {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end && end <= self.len, "slice out of bounds");
        PktBuf {
            page: Arc::clone(&self.page),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Splits into `[0, mid)` and `[mid, len)` views.
    ///
    /// # Panics
    ///
    /// Panics if `mid > len`.
    pub fn split_at(&self, mid: usize) -> (PktBuf, PktBuf) {
        (self.slice(..mid), self.slice(mid..))
    }

    /// Splits off and returns the first `n` bytes; `self` keeps the rest.
    /// Both halves share the backing page.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn split_to(&mut self, n: usize) -> PktBuf {
        let head = self.slice(..n);
        self.off += n;
        self.len -= n;
        head
    }

    /// Copies out into an owned vector. Counted.
    pub fn to_vec(&self) -> Vec<u8> {
        record_copy(self.len());
        self.as_slice().to_vec()
    }

    /// Number of views (including this one) sharing the backing page.
    pub fn view_count(&self) -> usize {
        Arc::strong_count(&self.page)
    }
}

impl fmt::Debug for PktBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PktBuf[{} bytes]", self.len())
    }
}

impl Deref for PktBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for PktBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PktBuf {}

impl PartialEq<[u8]> for PktBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for PktBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for PktBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for PktBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for PktBuf {
    /// Adopts the vector; no copy.
    fn from(data: Vec<u8>) -> PktBuf {
        PktBuf::from_vec(data)
    }
}

impl From<&[u8]> for PktBuf {
    /// Copies the slice. Counted.
    fn from(data: &[u8]) -> PktBuf {
        PktBuf::copy_from_slice(data)
    }
}

/// Serialises the tests that assert on the process-wide copy counters.
#[cfg(test)]
pub(crate) fn audit_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagePool;
    use mirage_testkit::prop::{any, collection};

    #[test]
    fn from_vec_adopts_the_allocation_without_counting() {
        let _audit = audit_lock();
        let before = copy_counters();
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(&[1, 2, 3, 4]);
        let ptr = v.as_ptr();
        let p = PktBuf::from_vec(v);
        assert_eq!(p.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(
            p.as_slice().as_ptr(),
            ptr,
            "spare capacity forces no realloc"
        );
        assert_eq!(copy_counters().copies, before.copies, "adoption is free");
    }

    #[test]
    fn copy_from_slice_is_counted() {
        let _audit = audit_lock();
        let before = copy_counters();
        let p = PktBuf::copy_from_slice(b"abcdef");
        let after = copy_counters();
        assert_eq!(p.len(), 6);
        assert_eq!(after.copies, before.copies + 1);
        assert_eq!(after.copy_bytes, before.copy_bytes + 6);
    }

    #[test]
    fn to_vec_and_slice_conversion_are_counted() {
        let _audit = audit_lock();
        let p = PktBuf::from_vec(b"abcdef".to_vec());
        let before = copy_counters();
        assert_eq!(p.to_vec(), b"abcdef");
        let q: PktBuf = (&b"xyz"[..]).into();
        assert_eq!(q, b"xyz");
        let after = copy_counters();
        assert_eq!(after.copies, before.copies + 2, "no silent copy behind a conversion");
        assert_eq!(after.copy_bytes, before.copy_bytes + 9);
    }

    #[test]
    fn slicing_shares_the_page() {
        let _audit = audit_lock();
        let pool = PagePool::new(1);
        let mut page = pool.alloc().unwrap();
        page.write_at(0, b"headerpayload");
        page.truncate(13);
        let pkt = page.freeze();
        let before = copy_counters();
        let hdr = pkt.slice(..6);
        let body = pkt.slice(6..);
        assert_eq!(hdr, b"header");
        assert_eq!(body, b"payload");
        assert_eq!(pkt.view_count(), 3);
        assert_eq!(copy_counters().copies, before.copies, "views are free");
        assert_eq!(pool.free_pages(), 0, "page still referenced");
        drop((pkt, hdr, body));
        assert_eq!(pool.free_pages(), 1, "page recycled after last view");
    }

    #[test]
    fn unfrozen_bufmut_recycles_on_drop() {
        let pool = PagePool::new(1);
        let page = pool.alloc().unwrap();
        drop(page);
        assert_eq!(pool.free_pages(), 1);
        assert_eq!(pool.stats().total_recycles, 1);
    }

    #[test]
    fn write_at_grows_exposed_length() {
        let pool = PagePool::new(1);
        let mut page = pool.alloc().unwrap();
        assert_eq!(page.len(), crate::PAGE_SIZE);
        page.truncate(0);
        page.write_at(0, b"abc");
        assert_eq!(page.len(), 3);
        page.write_at(1, b"z");
        assert_eq!(page.len(), 3, "write inside extent does not grow");
        assert_eq!(page.freeze().as_slice(), b"azc");
    }

    #[test]
    fn equality_is_by_content() {
        assert_eq!(
            PktBuf::from_vec(b"hello".to_vec()),
            PktBuf::from_vec(b"xhello".to_vec()).slice(1..)
        );
        assert_ne!(
            PktBuf::from_vec(b"hello".to_vec()),
            PktBuf::from_vec(b"world".to_vec())
        );
    }

    #[test]
    fn split_to_advances_the_remainder() {
        let mut p = PktBuf::from_vec(b"abcdefgh".to_vec());
        let head = p.split_to(3);
        assert_eq!(head, b"abc");
        assert_eq!(p, b"defgh");
        let rest = p.split_to(5);
        assert_eq!(rest, b"defgh");
        assert!(p.is_empty());
    }

    #[test]
    fn deref_allows_slice_ops() {
        let p = PktBuf::from_vec(vec![0x12, 0x34]);
        assert_eq!(u16::from_be_bytes([p[0], p[1]]), 0x1234);
        assert_eq!(&p[..], b"\x12\x34");
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_out_of_bounds_panics() {
        let p = PktBuf::from_vec(vec![0; 4]);
        let _ = p.slice(2..9);
    }

    mirage_testkit::property! {
        /// The view algebra: any chain of in-bounds slice() calls observes
        /// exactly the bytes of the corresponding slice range.
        fn prop_slice_matches_slice(data in collection::vec(any::<u8>(), 1..256),
                                    cuts in collection::vec((0usize..256, 0usize..256), 0..8)) {
            let mut view = PktBuf::from_vec(data.clone());
            let mut lo = 0usize;
            let mut hi = data.len();
            for (a, b) in cuts {
                let len = hi - lo;
                if len == 0 { break; }
                let off = a % len;
                let sub_len = b % (len - off + 1);
                view = view.slice(off..off + sub_len);
                lo += off;
                hi = lo + sub_len;
            }
            assert_eq!(view.as_slice(), &data[lo..hi]);
        }

        /// split_at is a partition: concatenating the halves restores the view.
        fn prop_split_partitions(data in collection::vec(any::<u8>(), 0..128),
                                 mid_seed in any::<usize>()) {
            let buf = PktBuf::from_vec(data.clone());
            let mid = if data.is_empty() { 0 } else { mid_seed % (data.len() + 1) };
            let (a, b) = buf.split_at(mid);
            let mut joined = a.as_slice().to_vec();
            joined.extend_from_slice(b.as_slice());
            assert_eq!(joined, data);
        }

        /// Pages always return to the pool no matter how views are split.
        fn prop_pages_always_recycle(splits in collection::vec(0usize..4096, 1..16)) {
            let pool = PagePool::new(1);
            {
                let page = pool.alloc().unwrap();
                let buf = page.freeze();
                let mut views = vec![buf];
                for s in splits {
                    let last = views.last().unwrap().clone();
                    let mid = s % (last.len() + 1);
                    let (a, b) = last.split_at(mid);
                    views.push(a);
                    views.push(b);
                }
            }
            assert_eq!(pool.free_pages(), 1);
        }
    }
}
