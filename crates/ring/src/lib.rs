//! Shared-memory rings — "the base abstraction for all I/O throughout
//! Mirage" (paper §3.4).
//!
//! A Xen device consists of a frontend in the guest and a backend in the
//! driver domain, "connected by an event channel to signal the other side,
//! and a single memory page divided into fixed-size request slots tracked
//! by producer/consumer pointers. Responses are written into the same slots
//! as the requests, with the frontend implementing flow control to avoid
//! overflowing the ring."
//!
//! Two ring flavours are provided:
//!
//! * [`desc::FrontRing`] / [`desc::BackRing`] — the descriptor ring used by
//!   network and block devices. Slots carry fixed-size descriptors (grant
//!   references and metadata — never payload data).
//! * [`byte::ByteRing`] — the byte-stream ring used by vchan and the
//!   console (§3.5.1).
//!
//! Both implement the Xen *event-index* notification-suppression protocol:
//! a side only needs to send an event-channel notification when its peer
//! has announced (via `req_event`/`rsp_event`) that it is waiting — "each
//! side checks for outstanding data before blocking, reducing the number of
//! hypervisor calls" (§3.5.1 footnote).

pub mod byte;
pub mod desc;

pub use byte::ByteRing;
pub use desc::{BackRing, FrontRing, RingError, Slot, SLOT_BYTES};
