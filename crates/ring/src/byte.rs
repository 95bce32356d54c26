//! The byte-stream ring used by vchan (paper §3.5.1).
//!
//! "vchan is a fast shared memory interconnect through which data is
//! tracked via producer/consumer pointers. It allocates multiple contiguous
//! pages for the ring to ensure it has a reasonable buffer and once
//! connected, communicating VMs can exchange data directly via shared
//! memory without further intervention from the hypervisor other than
//! interrupt notifications." The `*_waiting` flags implement the footnoted
//! optimisation: "each side checks for outstanding data before blocking,
//! reducing the number of hypervisor calls".

use mirage_hypervisor::grant::SharedPage;

/// Header layout (little-endian): prod u32 @0, cons u32 @4,
/// reader_waiting u8 @8, writer_waiting u8 @9; data starts at 16.
const HDR: usize = 16;
const OFF_PROD: usize = 0;
const OFF_CONS: usize = 4;
const OFF_READER_WAITING: usize = 8;
const OFF_WRITER_WAITING: usize = 9;

fn get_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

fn set_u32(bytes: &mut [u8], off: usize, v: u32) {
    bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// One direction of a vchan: a circular byte buffer in shared memory.
///
/// Both endpoints hold a `ByteRing` over the same [`SharedPage`] region;
/// one calls [`ByteRing::write`], the other [`ByteRing::read`].
#[derive(Debug, Clone)]
pub struct ByteRing {
    page: SharedPage,
    capacity: u32,
}

impl ByteRing {
    /// Attaches to a shared region (the data area is everything after the
    /// 16-byte header).
    ///
    /// # Panics
    ///
    /// Panics if the region is smaller than one page.
    pub fn attach(page: SharedPage) -> ByteRing {
        let len = page.len();
        assert!(len >= mirage_hypervisor::PAGE_SIZE, "ring region too small");
        ByteRing {
            page,
            capacity: (len - HDR) as u32,
        }
    }

    /// Creates a ring over `pages` fresh contiguous pages and returns both
    /// the ring and its backing region (to grant to the peer).
    pub fn allocate(pages: usize) -> (ByteRing, SharedPage) {
        let region = SharedPage::with_pages(pages);
        (ByteRing::attach(region.clone()), region)
    }

    /// Usable buffer capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Bytes currently queued.
    pub fn available_data(&self) -> u32 {
        self.page.read(|b| {
            get_u32(b, OFF_PROD).wrapping_sub(get_u32(b, OFF_CONS))
        })
    }

    /// Writes as much of `data` as fits; returns `(written, notify)` where
    /// `notify` means the reader announced it was blocked and must receive
    /// an event-channel notification.
    pub fn write(&self, data: &[u8]) -> (usize, bool) {
        let cap = self.capacity;
        self.page.write(|bytes| {
            let prod = get_u32(bytes, OFF_PROD);
            let cons = get_u32(bytes, OFF_CONS);
            let free = cap - prod.wrapping_sub(cons);
            let n = data.len().min(free as usize);
            for (i, &b) in data[..n].iter().enumerate() {
                let idx = (prod.wrapping_add(i as u32) % cap) as usize;
                bytes[HDR + idx] = b;
            }
            set_u32(bytes, OFF_PROD, prod.wrapping_add(n as u32));
            let notify = n > 0 && bytes[OFF_READER_WAITING] != 0;
            if notify {
                bytes[OFF_READER_WAITING] = 0;
            }
            (n, notify)
        })
    }

    /// Reads up to `buf.len()` bytes; returns `(read, notify)` where
    /// `notify` means the writer was blocked on space.
    pub fn read(&self, buf: &mut [u8]) -> (usize, bool) {
        let cap = self.capacity;
        self.page.write(|bytes| {
            let prod = get_u32(bytes, OFF_PROD);
            let cons = get_u32(bytes, OFF_CONS);
            let avail = prod.wrapping_sub(cons);
            let n = buf.len().min(avail as usize);
            for (i, slot) in buf[..n].iter_mut().enumerate() {
                let idx = (cons.wrapping_add(i as u32) % cap) as usize;
                *slot = bytes[HDR + idx];
            }
            set_u32(bytes, OFF_CONS, cons.wrapping_add(n as u32));
            let notify = n > 0 && bytes[OFF_WRITER_WAITING] != 0;
            if notify {
                bytes[OFF_WRITER_WAITING] = 0;
            }
            (n, notify)
        })
    }

    /// The reader announces it is about to block; returns `true` if data
    /// arrived in the meantime (re-poll instead of blocking).
    pub fn reader_about_to_block(&self) -> bool {
        self.page.write(|bytes| {
            bytes[OFF_READER_WAITING] = 1;
            get_u32(bytes, OFF_PROD) != get_u32(bytes, OFF_CONS)
        })
    }

    /// The writer announces it is about to block on space; returns `true`
    /// if space appeared in the meantime.
    pub fn writer_about_to_block(&self) -> bool {
        let cap = self.capacity;
        self.page.write(|bytes| {
            bytes[OFF_WRITER_WAITING] = 1;
            cap - get_u32(bytes, OFF_PROD).wrapping_sub(get_u32(bytes, OFF_CONS)) > 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    #[test]
    fn write_then_read_round_trips() {
        let (ring, _region) = ByteRing::allocate(1);
        let (n, _) = ring.write(b"hello vchan");
        assert_eq!(n, 11);
        assert_eq!(ring.available_data(), 11);
        let mut buf = [0u8; 32];
        let (m, _) = ring.read(&mut buf);
        assert_eq!(&buf[..m], b"hello vchan");
        assert_eq!(ring.available_data(), 0);
    }

    #[test]
    fn write_is_bounded_by_capacity() {
        let (ring, _region) = ByteRing::allocate(1);
        let big = vec![7u8; 10_000];
        let (n, _) = ring.write(&big);
        assert_eq!(n as u32, ring.capacity());
        let (n2, _) = ring.write(b"more");
        assert_eq!(n2, 0, "full ring accepts nothing");
    }

    #[test]
    fn multi_page_rings_have_larger_capacity() {
        let (small, _r1) = ByteRing::allocate(1);
        let (large, _r2) = ByteRing::allocate(4);
        assert!(large.capacity() > 3 * small.capacity());
    }

    #[test]
    fn wraparound_preserves_data() {
        let (ring, _region) = ByteRing::allocate(1);
        let cap = ring.capacity() as usize;
        let chunk = cap / 3 + 1;
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for round in 0u8..10 {
            let data = vec![round; chunk];
            let (n, _) = ring.write(&data);
            expected.extend_from_slice(&data[..n]);
            let mut buf = vec![0u8; chunk];
            let (m, _) = ring.read(&mut buf);
            got.extend_from_slice(&buf[..m]);
        }
        assert_eq!(expected, got);
    }

    #[test]
    fn notifications_only_when_peer_announced_blocking() {
        let (ring, _region) = ByteRing::allocate(1);
        let (_, notify) = ring.write(b"data");
        assert!(!notify, "reader never announced blocking");
        assert!(ring.reader_about_to_block(), "data available: re-poll");
        let mut buf = [0u8; 4];
        ring.read(&mut buf);
        assert!(!ring.reader_about_to_block(), "drained: ok to block");
        let (_, notify) = ring.write(b"more");
        assert!(notify, "reader announced blocking: wake it");
    }

    #[test]
    fn writer_blocking_protocol() {
        let (ring, _region) = ByteRing::allocate(1);
        let cap = ring.capacity() as usize;
        ring.write(&vec![0u8; cap]);
        assert!(!ring.writer_about_to_block(), "no space: really block");
        let mut buf = vec![0u8; 16];
        let (_, notify_writer) = ring.read(&mut buf);
        assert!(notify_writer, "writer was waiting on space");
    }

    mirage_testkit::property! {
        /// The byte stream is exactly FIFO: reads return precisely the
        /// bytes written, in order, regardless of chunking.
        fn prop_fifo_byte_stream(chunks in collection::vec(
            collection::vec(any::<u8>(), 0..512), 1..40)
        ) {
            let (ring, _region) = ByteRing::allocate(1);
            let mut written = Vec::new();
            let mut read_back = Vec::new();
            for chunk in &chunks {
                let (n, _) = ring.write(chunk);
                written.extend_from_slice(&chunk[..n]);
                let mut buf = vec![0u8; 300];
                let (m, _) = ring.read(&mut buf);
                read_back.extend_from_slice(&buf[..m]);
            }
            // Drain.
            loop {
                let mut buf = vec![0u8; 1024];
                let (m, _) = ring.read(&mut buf);
                if m == 0 { break; }
                read_back.extend_from_slice(&buf[..m]);
            }
            assert_eq!(written, read_back);
        }
    }
}
