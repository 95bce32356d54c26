//! The split virtqueue: virtio 1.0's descriptor table + avail/used rings.
//!
//! This is the second ring ABI the device layer speaks (the first being
//! the Xen-style descriptor ring in `mirage-ring`). Where a Xen ring is a
//! single array of fixed-size slots with responses overwriting requests
//! in place, a split virtqueue is three separately-allocated areas:
//!
//! * the **descriptor table** — `QUEUE_SIZE` fixed 16-byte descriptors
//!   `{addr, len, flags, next}`, chained through `next` when a buffer
//!   spans several memory regions; free descriptors are kept on a
//!   driver-private free chain threaded through the same `next` fields;
//! * the **available ring** — driver-written: `{flags, idx, ring[],
//!   used_event}`; the driver publishes descriptor-chain heads here;
//! * the **used ring** — device-written: `{flags, idx, ring[] of
//!   {id, len}, avail_event}`; the device returns consumed heads here
//!   together with the number of bytes it wrote.
//!
//! Notification suppression is the `VIRTIO_F_EVENT_IDX` protocol: each
//! side publishes the ring index *after which* it wants to be signalled
//! (`used_event` for the driver, `avail_event` for the device), and the
//! producer rings the doorbell only when its new index crosses that mark
//! ([`need_event`]) — the same announce-before-blocking discipline as the
//! Xen ring's `req_event`/`rsp_event`, expressed over free-running
//! 16-bit counters.
//!
//! Descriptor `addr` fields are guest "physical" addresses. The simulated
//! substrate models guest memory sharing with grant references, so an
//! address encodes `(grant ref << 12) | offset` ([`buf_addr`] /
//! [`split_addr`]); the device side resolves the page through the grant
//! table exactly as a real backend maps guest frames.
//!
//! Both halves treat the shared pages as hostile: stale or wrapped
//! indices, out-of-range descriptor ids and chain loops are counted in
//! [`VirtqErrors`] and skipped, never followed and never panicked on
//! (the adversarial suite fuzzes exactly these fields).
//!
//! As on the Xen ring, a burst crosses once: each producer stages entries
//! behind its private index and `publish` writes them, the shared index
//! and reads the peer's event mark once per pass (virtio's
//! `kick_prepare`); each consumer copies every published entry in one
//! read.

use std::collections::VecDeque;

use mirage_hypervisor::grant::SharedPage;

/// Descriptors per queue (power of two; 16-byte descriptors fill half a
/// page at 128).
pub const QUEUE_SIZE: u16 = 128;

/// Descriptor continues into the descriptor indexed by `next`.
pub const DESC_F_NEXT: u16 = 1;
/// Buffer is device-writable (RX buffers, read payloads, status bytes).
pub const DESC_F_WRITE: u16 = 2;

/// Largest descriptor chain either side will follow.
pub const MAX_CHAIN: usize = QUEUE_SIZE as usize;

const Q: usize = QUEUE_SIZE as usize;

// ------------------------------------------------------------- layout

#[inline]
fn desc_off(i: u16) -> usize {
    i as usize * 16
}

/// Offset of `used_event` within the avail area (after the ring).
const USED_EVENT_OFF: usize = 4 + 2 * Q;
/// Offset of `avail_event` within the used area (after the ring).
const AVAIL_EVENT_OFF: usize = 4 + 8 * Q;

fn get_u16(page: &SharedPage, off: usize) -> u16 {
    page.read(|b| u16::from_le_bytes([b[off], b[off + 1]]))
}

fn set_u16(page: &SharedPage, off: usize, v: u16) {
    page.write(|b| b[off..off + 2].copy_from_slice(&v.to_le_bytes()));
}

/// One entry of the descriptor table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Desc {
    /// Guest address of the buffer ([`buf_addr`] encoding).
    pub addr: u64,
    /// Buffer length in bytes.
    pub len: u32,
    /// `DESC_F_NEXT` / `DESC_F_WRITE`.
    pub flags: u16,
    /// Next descriptor in the chain (valid when `DESC_F_NEXT` is set).
    pub next: u16,
}

fn write_desc(b: &mut [u8], i: u16, d: Desc) {
    let o = desc_off(i);
    b[o..o + 8].copy_from_slice(&d.addr.to_le_bytes());
    b[o + 8..o + 12].copy_from_slice(&d.len.to_le_bytes());
    b[o + 12..o + 14].copy_from_slice(&d.flags.to_le_bytes());
    b[o + 14..o + 16].copy_from_slice(&d.next.to_le_bytes());
}

fn read_desc(b: &[u8], i: u16) -> Desc {
    let o = desc_off(i);
    Desc {
        addr: u64::from_le_bytes(b[o..o + 8].try_into().expect("len")),
        len: u32::from_le_bytes(b[o + 8..o + 12].try_into().expect("len")),
        flags: u16::from_le_bytes([b[o + 12], b[o + 13]]),
        next: u16::from_le_bytes([b[o + 14], b[o + 15]]),
    }
}

/// Copies the `W`-byte entries `[from, idx)` of the ring whose index sits
/// at offset 2 of `b` and whose entries start at 4 (avail: heads, used:
/// `{id, len}`). Returns the index and whether it leapt more than the
/// queue holds — a stale or wrapped counter, of which nothing is copied.
fn read_burst<const W: usize>(b: &[u8], from: u16, out: &mut VecDeque<[u8; W]>) -> (u16, bool) {
    let idx = u16::from_le_bytes([b[2], b[3]]);
    let pending = idx.wrapping_sub(from);
    if pending > QUEUE_SIZE {
        return (idx, true);
    }
    out.extend((0..pending).map(|i| {
        let o = 4 + W * (from.wrapping_add(i) as usize % Q);
        <[u8; W]>::try_from(&b[o..o + W]).expect("entry width")
    }));
    (idx, false)
}

/// Writes `staged` as the entries just below `idx`, then the index itself:
/// the write barrier between the two is the page access's order.
fn write_burst<const W: usize>(b: &mut [u8], idx: u16, staged: &[[u8; W]]) {
    let old = idx.wrapping_sub(staged.len() as u16);
    for (i, entry) in (0..).zip(staged) {
        let o = 4 + W * (old.wrapping_add(i) as usize % Q);
        b[o..o + W].copy_from_slice(entry);
    }
    b[2..4].copy_from_slice(&idx.to_le_bytes());
}

/// Packs a grant reference and an intra-page offset into a descriptor
/// address, the simulated stand-in for a guest physical address.
pub fn buf_addr(gref: u32, offset: usize) -> u64 {
    debug_assert!(offset < mirage_hypervisor::PAGE_SIZE);
    (gref as u64) << 12 | offset as u64
}

/// Splits a descriptor address back into `(grant ref, offset)`.
pub fn split_addr(addr: u64) -> (u32, usize) {
    ((addr >> 12) as u32, (addr & 0xFFF) as usize)
}

/// The EVENT_IDX predicate (virtio 1.0 §2.6.7.1): ring the peer iff its
/// announced wake-up mark `event_idx` falls inside `(old_idx, new_idx]`
/// in free-running 16-bit arithmetic.
pub fn need_event(event_idx: u16, new_idx: u16, old_idx: u16) -> bool {
    new_idx.wrapping_sub(event_idx).wrapping_sub(1) < new_idx.wrapping_sub(old_idx)
}

/// The three shared areas of one queue.
#[derive(Debug, Clone)]
pub struct QueuePages {
    /// Descriptor table (driver-written, device-read).
    pub desc: SharedPage,
    /// Available ring (driver-written, device-read).
    pub avail: SharedPage,
    /// Used ring (device-written, driver-read).
    pub used: SharedPage,
}

impl QueuePages {
    /// Allocates the three zeroed areas.
    pub fn new() -> QueuePages {
        QueuePages {
            desc: SharedPage::new(),
            avail: SharedPage::new(),
            used: SharedPage::new(),
        }
    }
}

impl Default for QueuePages {
    fn default() -> Self {
        QueuePages::new()
    }
}

/// Errors from driver-side queue operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtqError {
    /// Not enough free descriptors for the chain.
    Full,
    /// A chain must name at least one buffer.
    EmptyChain,
    /// Chain longer than [`MAX_CHAIN`].
    TooLong,
}

impl std::fmt::Display for VirtqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            VirtqError::Full => "virtqueue has no free descriptors",
            VirtqError::EmptyChain => "descriptor chain is empty",
            VirtqError::TooLong => "descriptor chain exceeds the queue size",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for VirtqError {}

/// Malformed-shared-state counters; both halves keep one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VirtqErrors {
    /// Used/avail entries naming a descriptor id out of range or not in
    /// flight.
    pub bad_id: u64,
    /// Descriptor chains that looped or overran [`MAX_CHAIN`].
    pub bad_chain: u64,
    /// Ring index jumps larger than the queue size (stale or wrapped
    /// counters); the reader resynchronises instead of following them.
    pub idx_jumps: u64,
}

impl VirtqErrors {
    /// Total malformed events observed.
    pub fn total(&self) -> u64 {
        self.bad_id + self.bad_chain + self.idx_jumps
    }
}

/// One buffer of a chain the driver is queuing.
#[derive(Debug, Clone, Copy)]
pub struct ChainBuf {
    /// Guest address ([`buf_addr`]).
    pub addr: u64,
    /// Length in bytes.
    pub len: u32,
    /// Whether the device writes this buffer (RX payloads, status bytes).
    pub device_writes: bool,
}

// ------------------------------------------------------- driver half

/// The driver (guest) half of a split virtqueue: allocates descriptor
/// chains from the free list, publishes them on the avail ring, reclaims
/// them from the used ring.
#[derive(Debug)]
pub struct SplitQueue {
    pages: QueuePages,
    /// Head of the free chain (threaded through `next` in the table).
    free_head: u16,
    /// Free descriptors remaining.
    num_free: u16,
    /// Driver-private avail index, staged heads included.
    avail_idx: u16,
    /// Heads staged for the avail ring, published by [`SplitQueue::publish`].
    staged: Vec<[u8; 2]>,
    /// Next used entry to copy out of the shared ring.
    last_used: u16,
    /// Used entries copied out and not yet handed out.
    used: VecDeque<[u8; 8]>,
    /// Driver-private shadow of each descriptor's chain link, so reclaim
    /// never trusts (or re-reads) device-visible memory.
    chain_next: Vec<Option<u16>>,
    /// Heads currently owned by the device.
    in_flight: Vec<bool>,
    errors: VirtqErrors,
}

impl SplitQueue {
    /// A fresh driver half over `pages`, with every descriptor free.
    pub fn new(pages: QueuePages) -> SplitQueue {
        let mut chain_next = vec![None; Q];
        for (i, link) in chain_next.iter_mut().enumerate().take(Q - 1) {
            *link = Some(i as u16 + 1);
        }
        SplitQueue {
            pages,
            free_head: 0,
            num_free: QUEUE_SIZE,
            avail_idx: 0,
            staged: Vec::with_capacity(Q),
            last_used: 0,
            used: VecDeque::with_capacity(Q),
            chain_next,
            in_flight: vec![false; Q],
            errors: VirtqErrors::default(),
        }
    }

    /// The shared areas (to grant to the device domain).
    pub fn pages(&self) -> &QueuePages {
        &self.pages
    }

    /// Free descriptors available for new chains.
    pub fn free_descriptors(&self) -> u16 {
        self.num_free
    }

    /// Malformed-state counters.
    pub fn errors(&self) -> VirtqErrors {
        self.errors
    }

    /// Stages and publishes one descriptor chain for `bufs`, returning
    /// `(head, notify)` — the chain's head id (the device echoes it in the
    /// used entry) and whether the device's `avail_event` mark requires a
    /// doorbell.
    ///
    /// # Errors
    ///
    /// As [`SplitQueue::stage_chain`]; nothing is published on error.
    pub fn add_chain(&mut self, bufs: &[ChainBuf]) -> Result<(u16, bool), VirtqError> {
        let head = self.stage_chain(bufs)?;
        Ok((head, self.publish()))
    }

    /// Allocates a descriptor chain for `bufs`, writes its descriptors and
    /// stages its head; the device sees it at the next
    /// [`SplitQueue::publish`]. Returns the head id.
    ///
    /// # Errors
    ///
    /// [`VirtqError::Full`] when fewer than `bufs.len()` descriptors are
    /// free, [`VirtqError::EmptyChain`] / [`VirtqError::TooLong`] for
    /// degenerate chains. Nothing is staged on error.
    pub fn stage_chain(&mut self, bufs: &[ChainBuf]) -> Result<u16, VirtqError> {
        if bufs.is_empty() {
            return Err(VirtqError::EmptyChain);
        }
        if bufs.len() > MAX_CHAIN {
            return Err(VirtqError::TooLong);
        }
        if (bufs.len() as u16) > self.num_free {
            return Err(VirtqError::Full);
        }
        // Carve the chain off the free list.
        let head = self.free_head;
        let (chain_next, free_head) = (&mut self.chain_next, &mut self.free_head);
        self.pages.desc.write(|b| {
            let mut idx = head;
            for (i, buf) in bufs.iter().enumerate() {
                let last = i + 1 == bufs.len();
                let next = chain_next[idx as usize];
                let mut flags = if buf.device_writes { DESC_F_WRITE } else { 0 };
                let next_idx = if last {
                    *free_head = next.unwrap_or(0);
                    chain_next[idx as usize] = None;
                    0
                } else {
                    flags |= DESC_F_NEXT;
                    next.expect("free list holds enough descriptors")
                };
                let desc = Desc {
                    addr: buf.addr,
                    len: buf.len,
                    flags,
                    next: next_idx,
                };
                write_desc(b, idx, desc);
                idx = next_idx;
            }
        });
        self.num_free -= bufs.len() as u16;
        self.in_flight[head as usize] = true;
        self.staged.push(head.to_le_bytes());
        self.avail_idx = self.avail_idx.wrapping_add(1);
        Ok(head)
    }

    /// Publishes every staged head: the avail entries and index in one
    /// write, then one read of the device's `avail_event`. `true` if the
    /// mark asks for a doorbell — which it does iff publishing the heads
    /// one at a time would have asked at least once.
    pub fn publish(&mut self) -> bool {
        if self.staged.is_empty() {
            return false;
        }
        let (new, staged) = (self.avail_idx, &self.staged);
        self.pages.avail.write(|b| write_burst(b, new, staged));
        let old = new.wrapping_sub(staged.len() as u16);
        self.staged.clear();
        need_event(get_u16(&self.pages.used, AVAIL_EVENT_OFF), new, old)
    }

    /// Consumes the next used entry, returning `(chain head, bytes the
    /// device wrote)` and releasing the chain's descriptors back to the
    /// free list. Every entry published since the last burst is copied in
    /// one read. Entries naming invalid or not-in-flight ids are counted
    /// in [`VirtqErrors`] and skipped.
    pub fn take_used(&mut self) -> Option<(u16, u32)> {
        if self.used.is_empty() {
            let (from, used) = (self.last_used, &mut self.used);
            let (idx, leapt) = self.pages.used.read(|b| read_burst(b, from, used));
            // A wrapped or corrupted device index: resynchronise rather
            // than replay garbage entries.
            self.errors.idx_jumps += u64::from(leapt);
            self.last_used = idx;
        }
        while let Some(entry) = self.used.pop_front() {
            let [i0, i1, i2, i3, l0, l1, l2, l3] = entry;
            let (id, len) = (
                u32::from_le_bytes([i0, i1, i2, i3]),
                u32::from_le_bytes([l0, l1, l2, l3]),
            );
            if id >= QUEUE_SIZE as u32 || !self.in_flight[id as usize] {
                self.errors.bad_id += 1;
                continue;
            }
            let head = id as u16;
            self.free_chain(head);
            return Some((head, len));
        }
        None
    }

    /// Returns a chain (walked through the private shadow links) to the
    /// free list.
    fn free_chain(&mut self, head: u16) {
        self.in_flight[head as usize] = false;
        let mut idx = head;
        let mut freed = 0u16;
        loop {
            freed += 1;
            let next = self.chain_next[idx as usize];
            match next {
                Some(n) if freed < QUEUE_SIZE => {
                    idx = n;
                }
                _ => break,
            }
        }
        // Thread the chain's tail onto the old free head.
        self.chain_next[idx as usize] = if self.num_free == 0 {
            None
        } else {
            Some(self.free_head)
        };
        self.free_head = head;
        self.num_free += freed;
    }

    /// Announces the driver is about to block until the next used entry
    /// (`used_event := last_used`). Returns `true` if used entries raced
    /// in already — re-poll instead of blocking.
    pub fn enable_used_notifications(&mut self) -> bool {
        if !self.used.is_empty() {
            return true;
        }
        set_u16(&self.pages.avail, USED_EVENT_OFF, self.last_used);
        get_u16(&self.pages.used, 2) != self.last_used
    }

    /// Walks the free list (bounded), for invariant checks in tests: the
    /// returned ids must be unique and `num_free` long, and disjoint from
    /// every in-flight chain.
    #[doc(hidden)]
    pub fn debug_free_list(&self) -> Vec<u16> {
        let mut out = Vec::new();
        if self.num_free == 0 {
            return out;
        }
        let mut idx = self.free_head;
        for _ in 0..Q + 1 {
            out.push(idx);
            match self.chain_next[idx as usize] {
                Some(n) if out.len() < Q + 1 && (out.len() as u16) < self.num_free => idx = n,
                _ => break,
            }
        }
        out
    }

    /// The descriptor ids of an in-flight chain, walked through the
    /// private shadow (for invariant checks in tests).
    #[doc(hidden)]
    pub fn debug_chain(&self, head: u16) -> Vec<u16> {
        let mut out = Vec::new();
        let mut idx = head;
        for _ in 0..Q {
            out.push(idx);
            match self.chain_next[idx as usize] {
                Some(n) => idx = n,
                None => break,
            }
        }
        out
    }
}

// ------------------------------------------------------- device half

/// One buffer of a chain as the device reads it: `(addr, len,
/// device_writes)`.
pub type DeviceBuf = (u64, u32, bool);

/// A descriptor chain the device popped from the avail ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Head descriptor id (returned in the used entry).
    pub head: u16,
    /// The chain's buffers in order.
    pub bufs: Vec<DeviceBuf>,
}

/// The device (backend) half: consumes avail entries, walks descriptor
/// chains, returns used entries.
#[derive(Debug)]
pub struct DeviceQueue {
    pages: QueuePages,
    /// Next avail entry to copy out of the shared ring.
    last_avail: u16,
    /// Avail heads copied out and not yet handed out.
    avail: VecDeque<[u8; 2]>,
    /// Device-private used index, staged entries included.
    used_idx: u16,
    /// `{id, len}` entries staged for the used ring, published by
    /// [`DeviceQueue::publish`].
    staged: Vec<[u8; 8]>,
    /// The buffers of the chain last walked, refilled by every walk.
    chain: Vec<DeviceBuf>,
    errors: VirtqErrors,
}

impl DeviceQueue {
    /// Attaches the device half to mapped queue areas.
    pub fn attach(pages: QueuePages) -> DeviceQueue {
        DeviceQueue {
            pages,
            last_avail: 0,
            avail: VecDeque::with_capacity(Q),
            used_idx: 0,
            staged: Vec::with_capacity(Q),
            chain: Vec::new(),
            errors: VirtqErrors::default(),
        }
    }

    /// Malformed-state counters.
    pub fn errors(&self) -> VirtqErrors {
        self.errors
    }

    /// Pops the next available descriptor chain, if any; every head
    /// published since the last burst is copied in one read. Malformed
    /// entries (out-of-range heads, looping or overlong chains, index
    /// jumps past the queue size) are counted and skipped — the device
    /// never follows hostile ring state.
    pub fn pop_avail(&mut self) -> Option<Chain> {
        let (head, bufs) = self.next_chain()?;
        Some(Chain {
            head,
            bufs: bufs.to_vec(),
        })
    }

    /// [`DeviceQueue::pop_avail`] without the copy: the head and a view of
    /// its buffers, valid until the next call.
    pub fn next_chain(&mut self) -> Option<(u16, &[DeviceBuf])> {
        if self.avail.is_empty() {
            let (from, heads) = (self.last_avail, &mut self.avail);
            let (idx, leapt) = self.pages.avail.read(|b| read_burst(b, from, heads));
            self.errors.idx_jumps += u64::from(leapt);
            self.last_avail = idx;
        }
        while let Some(head) = self.avail.pop_front() {
            let head = u16::from_le_bytes(head);
            if head >= QUEUE_SIZE {
                self.errors.bad_id += 1;
                continue;
            }
            if self.walk_chain(head) {
                return Some((head, &self.chain));
            }
        }
        None
    }

    /// Follows a chain through the descriptor table in one read, into
    /// `self.chain`; `false` if the chain is malformed.
    fn walk_chain(&mut self, head: u16) -> bool {
        const _: () = assert!(Q <= 128, "one bit per descriptor in a u128");
        let (errors, bufs) = (&mut self.errors, &mut self.chain);
        bufs.clear();
        self.pages.desc.read(|b| {
            let (mut idx, mut seen) = (head, 0u128);
            loop {
                if seen & (1 << idx) != 0 {
                    // A descriptor loop: abandon the chain.
                    errors.bad_chain += 1;
                    return false;
                }
                seen |= 1 << idx;
                let d = read_desc(b, idx);
                bufs.push((d.addr, d.len, d.flags & DESC_F_WRITE != 0));
                if d.flags & DESC_F_NEXT == 0 {
                    return true;
                }
                if d.next >= QUEUE_SIZE {
                    errors.bad_id += 1;
                    return false;
                }
                idx = d.next;
            }
        })
    }

    /// Stages and publishes one used entry: the chain goes back to the
    /// driver with `len` bytes written. Reports whether the driver's
    /// `used_event` mark requires an interrupt.
    pub fn push_used(&mut self, head: u16, len: u32) -> bool {
        self.stage_used(head, len);
        self.publish()
    }

    /// Stages a chain's return with `len` bytes written; the driver sees
    /// it at the next [`DeviceQueue::publish`].
    pub fn stage_used(&mut self, head: u16, len: u32) {
        let mut entry = [0u8; 8];
        entry[..4].copy_from_slice(&u32::from(head).to_le_bytes());
        entry[4..].copy_from_slice(&len.to_le_bytes());
        self.staged.push(entry);
        self.used_idx = self.used_idx.wrapping_add(1);
    }

    /// Publishes every staged used entry: entries and index in one write,
    /// then one read of the driver's `used_event`. `true` if the mark asks
    /// for an interrupt.
    pub fn publish(&mut self) -> bool {
        if self.staged.is_empty() {
            return false;
        }
        let (new, staged) = (self.used_idx, &self.staged);
        self.pages.used.write(|b| write_burst(b, new, staged));
        let old = new.wrapping_sub(staged.len() as u16);
        self.staged.clear();
        need_event(get_u16(&self.pages.avail, USED_EVENT_OFF), new, old)
    }

    /// Announces the device is about to block until the next avail entry
    /// (`avail_event := last_avail`). Returns `true` if entries raced in;
    /// heads copied out and not yet handed out leave the mark alone.
    pub fn enable_avail_notifications(&mut self) -> bool {
        if !self.avail.is_empty() {
            return true;
        }
        set_u16(&self.pages.used, AVAIL_EVENT_OFF, self.last_avail);
        get_u16(&self.pages.avail, 2) != self.last_avail
    }

    /// Avail entries waiting to be consumed.
    pub fn pending_avail(&self) -> u16 {
        let published = get_u16(&self.pages.avail, 2).wrapping_sub(self.last_avail);
        published.wrapping_add(self.avail.len() as u16)
    }
}

/// Creates a connected driver/device pair over fresh queue areas (the
/// in-process analogue of grant-mapping the three pages).
pub fn pair() -> (SplitQueue, DeviceQueue) {
    let pages = QueuePages::new();
    (SplitQueue::new(pages.clone()), DeviceQueue::attach(pages))
}
