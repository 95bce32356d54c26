//! The descriptor ring: fixed-size request/response slots in one shared
//! page, tracked by producer/consumer pointers (paper §3.4, Figure 3).
//!
//! A burst costs one access to the page per side. A producer stages its
//! slots behind a private index (Xen's `req_prod_pvt` / `rsp_prod_pvt`)
//! and `publish` writes them and the shared index in one go, returning
//! the one doorbell decision (`RING_PUSH_*_AND_CHECK_NOTIFY`). A consumer
//! copies every published slot out at once and hands them out in order.
//! The peer cannot run while a domain steps, so the batch decision is
//! exactly the OR of the per-slot ones, and a burst read sees what
//! per-slot reads would have seen.

use std::collections::VecDeque;

use mirage_cstruct::cstruct_accessors;
use mirage_hypervisor::grant::SharedPage;

cstruct_accessors! {
    /// The shared ring header — the exact struct of the paper's Figure 3.
    pub mod ring_hdr (LittleEndian) {
        (get_req_prod, set_req_prod): u32 @ 0,
        (get_req_event, set_req_event): u32 @ 4,
        (get_rsp_prod, set_rsp_prod): u32 @ 8,
        (get_rsp_event, set_rsp_event): u32 @ 12,
        (get_stuff, set_stuff): u64 @ 16,
    }
}

/// Byte offset where slots begin (header padded to a cache line).
const SLOTS_OFFSET: usize = 64;

/// Stride of one slot. The first two bytes carry the descriptor length,
/// the rest the descriptor body.
pub const SLOT_BYTES: usize = 64;

/// Maximum descriptor payload per slot.
pub const SLOT_PAYLOAD: usize = SLOT_BYTES - 2;

/// Number of slots in a single-page ring (rounded down to a power of two so
/// index arithmetic is a mask, as in Xen).
pub const RING_SIZE: u32 = {
    let raw = (mirage_hypervisor::PAGE_SIZE - SLOTS_OFFSET) / SLOT_BYTES;
    // largest power of two <= raw
    let mut p = 1;
    while p * 2 <= raw {
        p *= 2;
    }
    p as u32
};

/// Errors from ring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// No free request slots — the frontend must back off (flow control).
    Full,
    /// Descriptor exceeds [`SLOT_PAYLOAD`].
    TooLarge,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            RingError::Full => "ring is full; frontend must wait for responses",
            RingError::TooLarge => "descriptor exceeds the slot payload size",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for RingError {}

fn slot_range(idx: u32) -> std::ops::Range<usize> {
    let slot = (idx % RING_SIZE) as usize;
    let start = SLOTS_OFFSET + slot * SLOT_BYTES;
    start..start + SLOT_BYTES
}

/// One descriptor, copied out of its slot onto the stack: it derefs to the
/// descriptor's bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    bytes: [u8; SLOT_PAYLOAD],
    len: u8,
}

impl Slot {
    /// A descriptor holding `data`, or as much of it as a slot carries.
    pub fn new(data: &[u8]) -> Slot {
        let len = data.len().min(SLOT_PAYLOAD);
        let mut bytes = [0; SLOT_PAYLOAD];
        bytes[..len].copy_from_slice(&data[..len]);
        Slot {
            bytes,
            len: len as u8,
        }
    }
}

impl std::ops::Deref for Slot {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slot({:02x?})", &**self)
    }
}

/// Decodes slot `idx` where it lies. The length field is the peer's word:
/// one larger than the slot is clamped to it.
fn read_slot(bytes: &[u8], idx: u32) -> Slot {
    let slot = &bytes[slot_range(idx)];
    let len = usize::from(u16::from_le_bytes([slot[0], slot[1]]));
    Slot::new(&slot[2..2 + len.min(SLOT_PAYLOAD)])
}

/// Writes `data` into slot `idx`.
fn write_slot(bytes: &mut [u8], idx: u32, data: &[u8]) {
    let slot = &mut bytes[slot_range(idx)];
    slot[0..2].copy_from_slice(&(data.len() as u16).to_le_bytes());
    slot[2..2 + data.len()].copy_from_slice(data);
}

/// One direction on the side that writes it: the producer index the peer
/// has not seen yet and the slots behind it, which only
/// [`Producer::publish`] puts on the page.
#[derive(Debug, Clone)]
struct Producer {
    prod: u32,
    staged: Vec<Slot>,
}

impl Producer {
    fn new() -> Producer {
        Producer {
            prod: 0,
            staged: Vec::with_capacity(RING_SIZE as usize),
        }
    }

    fn stage(&mut self, data: &[u8]) {
        self.staged.push(Slot::new(data));
        self.prod = self.prod.wrapping_add(1);
    }

    /// Writes the staged slots, then the producer index (the write
    /// barrier the paper's inline assembly provides), and reads the
    /// peer's event index, in one access. `true` iff the peer's announced
    /// wait point falls inside `(old, new]`.
    fn publish(
        &mut self,
        page: &SharedPage,
        set_prod: fn(&mut [u8], u32),
        get_event: fn(&[u8]) -> u32,
    ) -> bool {
        if self.staged.is_empty() {
            return false;
        }
        let (new, staged) = (self.prod, &self.staged);
        let old = new.wrapping_sub(staged.len() as u32);
        let notify = page.write(|bytes| {
            for (i, slot) in (0..).zip(staged) {
                write_slot(bytes, old.wrapping_add(i), slot);
            }
            set_prod(bytes, new);
            let event = get_event(bytes);
            new.wrapping_sub(event) < new.wrapping_sub(old)
        });
        self.staged.clear();
        notify
    }
}

/// One direction on the side that reads it: the consumer index, and the
/// slots copied out of the page but not yet handed out.
#[derive(Debug, Clone)]
struct Consumer {
    cons: u32,
    burst: VecDeque<Slot>,
    idx_jumps: u64,
}

impl Consumer {
    fn new() -> Consumer {
        Consumer {
            cons: 0,
            burst: VecDeque::with_capacity(RING_SIZE as usize),
            idx_jumps: 0,
        }
    }

    /// The next slot. An empty burst is refilled with every slot published
    /// since, in one access. A producer index more than a ring ahead is
    /// the peer's scribble: it is counted and skipped, never walked.
    fn take(&mut self, page: &SharedPage, get_prod: fn(&[u8]) -> u32) -> Option<Slot> {
        if self.burst.is_empty() {
            let (cons, burst) = (self.cons, &mut self.burst);
            let prod = page.read(|bytes| {
                let prod = get_prod(bytes);
                let pending = prod.wrapping_sub(cons);
                if pending <= RING_SIZE {
                    burst.extend((0..pending).map(|i| read_slot(bytes, cons.wrapping_add(i))));
                }
                prod
            });
            if prod.wrapping_sub(cons) > RING_SIZE {
                self.idx_jumps += 1;
            }
            self.cons = prod;
        }
        self.burst.pop_front()
    }

    /// Announces the wait point — the next slot — and reports whether one
    /// is there already. Slots copied out and not yet handed out leave
    /// the wait point where it is: the caller has to poll again anyway.
    fn arm(
        &mut self,
        page: &SharedPage,
        set_event: fn(&mut [u8], u32),
        get_prod: fn(&[u8]) -> u32,
    ) -> bool {
        if !self.burst.is_empty() {
            return true;
        }
        let cons = self.cons;
        page.write(|bytes| {
            set_event(bytes, cons.wrapping_add(1));
            get_prod(bytes) != cons
        })
    }
}

/// The guest half of a device ring: stages and publishes requests,
/// consumes responses.
#[derive(Debug, Clone)]
pub struct FrontRing {
    page: SharedPage,
    req: Producer,
    rsp: Consumer,
}

impl FrontRing {
    /// Attaches a frontend to a fresh or existing shared ring page.
    pub fn attach(page: SharedPage) -> FrontRing {
        FrontRing {
            page,
            req: Producer::new(),
            rsp: Consumer::new(),
        }
    }

    /// Free request slots (flow control: requests outstanding may not
    /// exceed the ring size). Both indices are private, so this reads no
    /// shared memory; a response index the backend leapt past the
    /// requests reads as no room, never as an underflow.
    pub fn free_slots(&self) -> u32 {
        RING_SIZE.saturating_sub(self.req.prod.wrapping_sub(self.rsp.cons))
    }

    /// Stages one request descriptor; the backend sees it at the next
    /// [`FrontRing::publish`].
    ///
    /// # Errors
    ///
    /// [`RingError::Full`] when flow control forbids the push;
    /// [`RingError::TooLarge`] for oversized descriptors.
    pub fn stage_request(&mut self, data: &[u8]) -> Result<(), RingError> {
        if data.len() > SLOT_PAYLOAD {
            return Err(RingError::TooLarge);
        }
        if self.free_slots() == 0 {
            return Err(RingError::Full);
        }
        self.req.stage(data);
        Ok(())
    }

    /// Makes every staged request visible; returns `true` when the backend
    /// must be notified (event-index suppression).
    pub fn publish(&mut self) -> bool {
        self.req
            .publish(&self.page, ring_hdr::set_req_prod, ring_hdr::get_req_event)
    }

    /// Stages and publishes one request descriptor; returns `true` when
    /// the backend must be notified.
    ///
    /// # Errors
    ///
    /// As [`FrontRing::stage_request`].
    pub fn push_request(&mut self, data: &[u8]) -> Result<bool, RingError> {
        self.stage_request(data)?;
        Ok(self.publish())
    }

    /// Pops the next response, if any.
    pub fn take_response(&mut self) -> Option<Slot> {
        self.rsp.take(&self.page, ring_hdr::get_rsp_prod)
    }

    /// Announces the frontend is about to block until the next response.
    /// Returns `true` if responses arrived concurrently (re-poll instead of
    /// blocking) — the final check before `domainpoll`.
    pub fn enable_response_notifications(&mut self) -> bool {
        self.rsp
            .arm(&self.page, ring_hdr::set_rsp_event, ring_hdr::get_rsp_prod)
    }

    /// Response indices the backend leapt more than a ring ahead; each was
    /// skipped rather than replayed.
    pub fn idx_jumps(&self) -> u64 {
        self.rsp.idx_jumps
    }

    /// The shared page (to grant to the backend domain).
    pub fn page(&self) -> &SharedPage {
        &self.page
    }
}

/// The driver-domain half: consumes requests, stages and publishes
/// responses.
#[derive(Debug, Clone)]
pub struct BackRing {
    page: SharedPage,
    req: Consumer,
    rsp: Producer,
}

impl BackRing {
    /// Attaches a backend to the shared ring page.
    pub fn attach(page: SharedPage) -> BackRing {
        BackRing {
            page,
            req: Consumer::new(),
            rsp: Producer::new(),
        }
    }

    /// Pops the next request, if any.
    pub fn take_request(&mut self) -> Option<Slot> {
        self.req.take(&self.page, ring_hdr::get_req_prod)
    }

    /// Stages one response; the frontend sees it at the next
    /// [`BackRing::publish`]. Responses always fit: they reuse the slots
    /// of requests already taken.
    ///
    /// # Errors
    ///
    /// [`RingError::TooLarge`] for oversized descriptors.
    pub fn stage_response(&mut self, data: &[u8]) -> Result<(), RingError> {
        if data.len() > SLOT_PAYLOAD {
            return Err(RingError::TooLarge);
        }
        self.rsp.stage(data);
        Ok(())
    }

    /// Makes every staged response visible; returns `true` when the
    /// frontend must be notified.
    pub fn publish(&mut self) -> bool {
        self.rsp
            .publish(&self.page, ring_hdr::set_rsp_prod, ring_hdr::get_rsp_event)
    }

    /// Stages and publishes one response; returns `true` when the
    /// frontend must be notified.
    ///
    /// # Errors
    ///
    /// As [`BackRing::stage_response`].
    pub fn push_response(&mut self, data: &[u8]) -> Result<bool, RingError> {
        self.stage_response(data)?;
        Ok(self.publish())
    }

    /// Announces the backend is about to block until the next request;
    /// returns `true` if requests arrived concurrently.
    pub fn enable_request_notifications(&mut self) -> bool {
        self.req
            .arm(&self.page, ring_hdr::set_req_event, ring_hdr::get_req_prod)
    }

    /// Number of requests waiting.
    pub fn pending_requests(&self) -> u32 {
        let req_prod = self.page.read(ring_hdr::get_req_prod);
        let copied = self.req.burst.len() as u32;
        req_prod.wrapping_sub(self.req.cons).wrapping_add(copied)
    }

    /// Request indices the frontend leapt more than a ring ahead; each
    /// was skipped rather than replayed.
    pub fn idx_jumps(&self) -> u64 {
        self.req.idx_jumps
    }
}

/// Creates a connected frontend/backend pair over a fresh shared page.
pub fn pair() -> (FrontRing, BackRing) {
    let page = SharedPage::new();
    (FrontRing::attach(page.clone()), BackRing::attach(page))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{collection};

    #[test]
    fn ring_size_is_a_power_of_two() {
        let size = RING_SIZE; // runtime binding so the checks aren't const-folded
        assert!(size.is_power_of_two());
        assert!(size >= 32);
    }

    #[test]
    fn request_response_round_trip() {
        let (mut front, mut back) = pair();
        front.push_request(b"read sector 7").unwrap();
        assert_eq!(back.pending_requests(), 1);
        let req = back.take_request().unwrap();
        assert_eq!(&*req, b"read sector 7");
        back.push_response(b"sector 7 data").unwrap();
        assert_eq!(&*front.take_response().unwrap(), b"sector 7 data");
        assert_eq!(front.take_response(), None);
    }

    #[test]
    fn flow_control_blocks_at_ring_size() {
        let (mut front, mut back) = pair();
        for i in 0..RING_SIZE {
            front.push_request(&[i as u8]).unwrap();
        }
        assert_eq!(front.push_request(b"x"), Err(RingError::Full));
        // Draining requests alone does NOT free slots — responses do.
        while back.take_request().is_some() {}
        assert_eq!(front.push_request(b"x"), Err(RingError::Full));
        back.push_response(b"r").unwrap();
        assert!(front.take_response().is_some());
        assert!(front.push_request(b"x").is_ok());
    }

    #[test]
    fn a_scribbled_producer_index_is_overwritten_not_trusted() {
        let (mut front, mut back) = pair();
        front
            .page()
            .write(|b| ring_hdr::set_req_prod(b, RING_SIZE + 7));
        assert_eq!(front.free_slots(), RING_SIZE, "the index is private");
        front.push_request(b"x").unwrap();
        assert_eq!(back.pending_requests(), 1, "publish rewrote it");
        assert_eq!(&*back.take_request().unwrap(), b"x");
    }

    #[test]
    fn a_leapt_response_index_is_counted_not_walked() {
        let (mut front, mut back) = pair();
        front.push_request(b"q").unwrap();
        assert_eq!(&*back.take_request().unwrap(), b"q");
        front.page().write(|b| ring_hdr::set_rsp_prod(b, u32::MAX));
        assert_eq!(front.take_response(), None);
        assert_eq!(front.idx_jumps(), 1);
        assert_eq!(front.take_response(), None, "skipped past, not replayed");
    }

    #[test]
    fn a_leapt_request_index_is_counted_not_walked() {
        let (front, mut back) = pair();
        front.page().write(|b| ring_hdr::set_req_prod(b, u32::MAX));
        assert_eq!(back.take_request(), None);
        assert_eq!(back.idx_jumps(), 1);
        assert_eq!(back.take_request(), None, "skipped past, not replayed");
    }

    #[test]
    fn the_first_take_copies_the_whole_burst() {
        let (mut front, mut back) = pair();
        for i in 0..5u8 {
            front.push_request(&[i]).unwrap();
            back.take_request().unwrap();
            back.stage_response(&[i; 3]).unwrap();
        }
        back.publish();
        assert_eq!(*front.take_response().unwrap(), [0; 3]);
        // The rest were copied out with the first: the page no longer
        // matters to them.
        front.page().write(|b| b.fill(0xEE));
        for i in 1..5u8 {
            assert_eq!(*front.take_response().unwrap(), [i; 3]);
        }
    }

    #[test]
    fn staged_requests_are_invisible_until_published() {
        let (mut front, mut back) = pair();
        assert!(!back.enable_request_notifications(), "ring empty");
        front.stage_request(b"one").unwrap();
        front.stage_request(b"two").unwrap();
        assert_eq!(back.pending_requests(), 0);
        assert_eq!(back.take_request(), None);
        assert_eq!(
            front.free_slots(),
            RING_SIZE - 2,
            "staged slots are spoken for"
        );
        assert!(front.publish(), "one doorbell for the burst");
        assert!(!front.publish(), "nothing left to publish");
        assert_eq!(&*back.take_request().unwrap(), b"one");
        assert_eq!(&*back.take_request().unwrap(), b"two");
    }

    #[test]
    fn oversized_descriptor_rejected() {
        let (mut front, _back) = pair();
        let big = vec![0u8; SLOT_PAYLOAD + 1];
        assert_eq!(front.push_request(&big), Err(RingError::TooLarge));
    }

    #[test]
    fn first_push_notifies_a_waiting_backend() {
        let (mut front, mut back) = pair();
        assert!(!back.enable_request_notifications(), "ring empty");
        let notify = front.push_request(b"hello").unwrap();
        assert!(notify, "backend announced it was waiting");
        // A second push while the backend has not re-armed: no notify.
        let notify2 = front.push_request(b"again").unwrap();
        assert!(!notify2, "event suppression while peer is awake");
    }

    #[test]
    fn enable_notifications_detects_race() {
        let (mut front, mut back) = pair();
        front.push_request(b"racer").unwrap();
        assert!(
            back.enable_request_notifications(),
            "data arrived before blocking: must re-poll, not sleep"
        );
    }

    #[test]
    fn response_notification_symmetric() {
        let (mut front, mut back) = pair();
        front.push_request(b"q").unwrap();
        back.take_request().unwrap();
        assert!(!front.enable_response_notifications());
        let notify = back.push_response(b"a").unwrap();
        assert!(notify);
    }

    #[test]
    fn indices_wrap_safely_across_many_cycles() {
        let (mut front, mut back) = pair();
        for round in 0..(RING_SIZE * 5) {
            front.push_request(&round.to_le_bytes()).unwrap();
            let req = back.take_request().unwrap();
            assert_eq!(*req, round.to_le_bytes());
            back.push_response(&round.to_le_bytes()).unwrap();
            assert_eq!(*front.take_response().unwrap(), round.to_le_bytes());
        }
    }

    mirage_testkit::property! {
        /// Publishing a batch rings exactly when publishing its slots one
        /// at a time would have rung at least once, wherever the peer put
        /// its wait point.
        fn prop_batch_doorbell_is_the_or_of_its_items(
            before in 0u32..40,
            event_ahead in 0u32..40,
            batch in 1u32..16,
        ) {
            let ring_at = |n: u32| {
                let (mut front, mut back) = pair();
                for _ in 0..n {
                    front.push_request(b"r").unwrap();
                    back.take_request().unwrap();
                    back.push_response(b"a").unwrap();
                    front.take_response().unwrap();
                }
                let event = n.wrapping_add(event_ahead).wrapping_sub(8);
                front.page().write(|b| ring_hdr::set_req_event(b, event));
                front
            };
            let mut batched = ring_at(before);
            let mut single = ring_at(before);
            let mut any = false;
            for _ in 0..batch {
                batched.stage_request(b"b").unwrap();
                any |= single.push_request(b"b").unwrap();
            }
            assert_eq!(batched.publish(), any);
        }

        /// The ring never loses, duplicates or reorders descriptors, under
        /// any interleaving of pushes and pops that respects flow control.
        fn prop_fifo_no_loss(script in collection::vec(0u8..3, 1..200)) {
            let (mut front, mut back) = pair();
            let mut next_req: u64 = 0;
            let mut expect_req: u64 = 0;
            let mut next_rsp: u64 = 0;
            let mut expect_rsp: u64 = 0;
            let mut in_backend: u64 = 0;
            for op in script {
                match op {
                    0 => {
                        if front.push_request(&next_req.to_le_bytes()).is_ok() {
                            next_req += 1;
                        }
                    }
                    1 => {
                        if let Some(req) = back.take_request() {
                            assert_eq!(*req, expect_req.to_le_bytes());
                            expect_req += 1;
                            in_backend += 1;
                        }
                    }
                    _ => {
                        if in_backend > 0 {
                            back.push_response(&next_rsp.to_le_bytes()).unwrap();
                            next_rsp += 1;
                            in_backend -= 1;
                            let rsp = front.take_response().unwrap();
                            assert_eq!(*rsp, expect_rsp.to_le_bytes());
                            expect_rsp += 1;
                        }
                    }
                }
            }
        }
    }
}
