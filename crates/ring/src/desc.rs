//! The descriptor ring: fixed-size request/response slots in one shared
//! page, tracked by producer/consumer pointers (paper §3.4, Figure 3).

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

/// The guest half of a device ring: pushes requests, consumes responses.
#[derive(Debug, Clone)]
pub struct FrontRing {
    page: SharedPage,
    /// Private response-consumer index (never shared; Xen keeps the same
    /// split between shared and private indices).
    rsp_cons: u32,
}

impl FrontRing {
    /// Attaches a frontend to a fresh or existing shared ring page.
    pub fn attach(page: SharedPage) -> FrontRing {
        FrontRing { page, rsp_cons: 0 }
    }

    /// Free request slots (flow control: requests outstanding may not
    /// exceed the ring size).
    pub fn free_slots(&self) -> u32 {
        // The shared index is the peer's to scribble on: a count beyond
        // the ring reads as no room, never as an underflow.
        let req_prod = self.page.read(ring_hdr::get_req_prod);
        RING_SIZE.saturating_sub(req_prod.wrapping_sub(self.rsp_cons))
    }

    /// Pushes one request descriptor; returns `true` when the backend must
    /// be notified (event-index suppression).
    ///
    /// # Errors
    ///
    /// [`RingError::Full`] when flow control forbids the push;
    /// [`RingError::TooLarge`] for oversized descriptors.
    pub fn push_request(&mut self, data: &[u8]) -> Result<bool, RingError> {
        if data.len() > SLOT_PAYLOAD {
            return Err(RingError::TooLarge);
        }
        let rsp_cons = self.rsp_cons;
        // One access to the shared page: flow control, slot and index.
        self.page.write(|bytes| {
            let old_prod = ring_hdr::get_req_prod(bytes);
            if old_prod.wrapping_sub(rsp_cons) >= RING_SIZE {
                return Err(RingError::Full);
            }
            let new_prod = old_prod.wrapping_add(1);
            // Write the slot, then publish the producer index (the write
            // barrier the paper's inline assembly provides).
            write_slot(bytes, old_prod, data);
            ring_hdr::set_req_prod(bytes, new_prod);
            let req_event = ring_hdr::get_req_event(bytes);
            // Notify iff the peer's announced wait point falls inside
            // (old_prod, new_prod].
            Ok(new_prod.wrapping_sub(req_event) < new_prod.wrapping_sub(old_prod))
        })
    }

    /// Pops the next response, if any.
    pub fn take_response(&mut self) -> Option<Slot> {
        let cons = self.rsp_cons;
        let rsp = self.page.read(|bytes| {
            (ring_hdr::get_rsp_prod(bytes) != cons).then(|| read_slot(bytes, cons))
        })?;
        self.rsp_cons = cons.wrapping_add(1);
        Some(rsp)
    }

    /// Announces the frontend is about to block until the next response.
    /// Returns `true` if responses arrived concurrently (re-poll instead of
    /// blocking) — the final check before `domainpoll`.
    pub fn enable_response_notifications(&mut self) -> bool {
        let cons = self.rsp_cons;
        self.page.write(|bytes| {
            ring_hdr::set_rsp_event(bytes, cons.wrapping_add(1));
            ring_hdr::get_rsp_prod(bytes) != cons
        })
    }

    /// The shared page (to grant to the backend domain).
    pub fn page(&self) -> &SharedPage {
        &self.page
    }
}

/// The driver-domain half: consumes requests, pushes responses.
#[derive(Debug, Clone)]
pub struct BackRing {
    page: SharedPage,
    /// Private request-consumer index.
    req_cons: u32,
}

impl BackRing {
    /// Attaches a backend to the shared ring page.
    pub fn attach(page: SharedPage) -> BackRing {
        BackRing { page, req_cons: 0 }
    }

    /// Pops the next request, if any.
    pub fn take_request(&mut self) -> Option<Slot> {
        let cons = self.req_cons;
        let req = self.page.read(|bytes| {
            (ring_hdr::get_req_prod(bytes) != cons).then(|| read_slot(bytes, cons))
        })?;
        self.req_cons = cons.wrapping_add(1);
        Some(req)
    }

    /// Pushes one response; returns `true` when the frontend must be
    /// notified.
    ///
    /// Responses always fit: they reuse the request's slot.
    ///
    /// # Errors
    ///
    /// [`RingError::TooLarge`] for oversized descriptors.
    pub fn push_response(&mut self, data: &[u8]) -> Result<bool, RingError> {
        if data.len() > SLOT_PAYLOAD {
            return Err(RingError::TooLarge);
        }
        let notify = self.page.write(|bytes| {
            let old_prod = ring_hdr::get_rsp_prod(bytes);
            let new_prod = old_prod.wrapping_add(1);
            write_slot(bytes, old_prod, data);
            ring_hdr::set_rsp_prod(bytes, new_prod);
            let rsp_event = ring_hdr::get_rsp_event(bytes);
            new_prod.wrapping_sub(rsp_event) < new_prod.wrapping_sub(old_prod)
        });
        Ok(notify)
    }

    /// Announces the backend is about to block until the next request;
    /// returns `true` if requests arrived concurrently.
    pub fn enable_request_notifications(&mut self) -> bool {
        let cons = self.req_cons;
        self.page.write(|bytes| {
            ring_hdr::set_req_event(bytes, cons.wrapping_add(1));
            ring_hdr::get_req_prod(bytes) != cons
        })
    }

    /// Number of requests waiting.
    pub fn pending_requests(&self) -> u32 {
        let req_prod = self.page.read(ring_hdr::get_req_prod);
        req_prod.wrapping_sub(self.req_cons)
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
    fn a_scribbled_producer_index_reads_as_a_full_ring() {
        let (mut front, _back) = pair();
        front
            .page()
            .write(|b| ring_hdr::set_req_prod(b, RING_SIZE + 7));
        assert_eq!(front.free_slots(), 0);
        assert_eq!(front.push_request(b"x"), Err(RingError::Full));
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
