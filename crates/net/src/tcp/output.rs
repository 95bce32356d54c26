//! The connection's I/O vocabulary: sequence arithmetic, application
//! events, per-step outputs and the per-connection counters. Shared by
//! every component; owned (written) by none — the orchestrator fills
//! these in as it composes component results.

use mirage_cstruct::PktBuf;
use mirage_hypervisor::Time;

use super::wire::SegmentOut;

/// Sequence-number arithmetic (RFC 793 §3.3: all comparisons are mod 2^32).
pub mod seq {
    /// `a < b` in sequence space.
    pub fn lt(a: u32, b: u32) -> bool {
        (a.wrapping_sub(b) as i32) < 0
    }

    /// `a <= b` in sequence space.
    pub fn le(a: u32, b: u32) -> bool {
        a == b || lt(a, b)
    }

    /// `a > b` in sequence space.
    pub fn gt(a: u32, b: u32) -> bool {
        lt(b, a)
    }

    /// `a >= b` in sequence space.
    pub fn ge(a: u32, b: u32) -> bool {
        le(b, a)
    }
}

/// Application-visible events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Three-way handshake completed.
    Connected,
    /// In-order payload arrived — a view over the received page, shared
    /// with the application by reference (paper Figure 2's "ext I/O data").
    Data(PktBuf),
    /// The peer sent FIN (no more data will arrive).
    PeerFin,
    /// The connection was reset.
    Reset,
    /// The connection is fully closed.
    Closed,
}

/// Output of state-machine steps. The methods that take `&mut Output`
/// append to it, so a caller that drains one and hands it back keeps its
/// capacity: a steady connection then emits without allocating.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Output {
    /// Segments to emit, in order.
    pub segments: Vec<SegmentOut>,
    /// Events for the application, in order.
    pub events: Vec<Event>,
}

/// What one [`Connection::poll`](super::Connection::poll) produced: the
/// state-machine output plus the connection's next timer deadline (`None`
/// for a quiescent connection), so a caller tracking many connections can
/// re-arm a per-connection deadline queue instead of re-scanning every
/// connection each tick.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PollOutcome {
    /// Segments to emit and events to deliver.
    pub output: Output,
    /// Earliest pending timer, if any.
    pub next_deadline: Option<Time>,
}

/// Per-connection counters (Figure 8 reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpStats {
    /// Segments received and accepted.
    pub segs_in: u64,
    /// Segments emitted.
    pub segs_out: u64,
    /// Payload bytes delivered in order.
    pub bytes_in: u64,
    /// Payload bytes sent (first transmission).
    pub bytes_out: u64,
    /// RTO retransmissions.
    pub rto_retransmits: u64,
    /// Fast retransmissions.
    pub fast_retransmits: u64,
    /// Zero-window persist probes sent.
    pub persist_probes: u64,
    /// Out-of-order stashes evicted because the reassembly buffer hit its
    /// segment or byte cap.
    pub ooo_evictions: u64,
    /// Overlapping segments whose bytes conflicted with already-received
    /// data (the first-received byte wins; the conflicting copy is dropped).
    pub overlap_conflicts: u64,
    /// Hostile segments dropped outright: RSTs with an unacceptable
    /// sequence number, and data claiming to be from beyond the window.
    pub injections_dropped: u64,
    /// Congestion window in bytes at snapshot time (a gauge, not a
    /// counter).
    pub cwnd: u64,
}

impl TcpStats {
    /// Every segment the loss-recovery machinery emitted.
    pub fn total_retransmits(&self) -> u64 {
        self.rto_retransmits + self.fast_retransmits
    }
}
