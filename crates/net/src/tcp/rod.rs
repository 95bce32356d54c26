//! ROD — reliable ordered delivery.
//!
//! Write scope: the sequence-space bookkeeping on both sides of the
//! connection — `iss`, `snd_una`, `snd_nxt` and the send buffer on the way
//! out; `rcv_nxt` and the out-of-order reassembly stash on the way in —
//! plus the loss-*detection* state (`dup_acks`, the duplicate-ACK
//! threshold, `in_recovery`, `recover`, and the undo record that matches
//! D-SACK blocks against a fast-recovery episode), which is sequence
//! arithmetic and therefore lives here, not in CongCtrl.
//! This component never touches timers, windows or `cwnd`: it classifies
//! what happened ([`AckClass`], [`DupSignal`], [`RecvOutcome`]) and the
//! orchestrator routes the classification to the right component.

use std::collections::BTreeMap;

use mirage_cstruct::{PktBuf, PktQueue};

use super::seq;

/// Duplicate ACKs that first signal a loss (RFC 5681 §3.2).
const DUPTHRESH: u32 = 3;

/// A fast-recovery episode that a D-SACK may yet prove spurious: its
/// range runs from `start` (`snd_una` at entry) to `recover`.
#[derive(Debug, Clone, Copy)]
struct Undo {
    start: u32,
    /// Retransmissions of the episode not yet reported as duplicates.
    unreported: u32,
}

/// How an acceptable forward ACK relates to an open recovery episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum AckClass {
    /// Not in recovery: plain congestion-window growth.
    Normal,
    /// The ACK covers `recover`: recovery is over.
    RecoveryFull,
    /// A partial ACK inside recovery: retransmit the next hole.
    RecoveryPartial,
}

/// What a duplicate ACK means right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum DupSignal {
    /// Below the dup-ack threshold, outside recovery: each one lets a new
    /// segment out (limited transmit), `cwnd` untouched.
    LimitedTransmit,
    /// The threshold's duplicate: enter fast retransmit / fast recovery.
    EnterRecovery,
    /// Extra duplicate inside recovery: inflate and transmit.
    Inflate,
}

/// Receive-side classification of one data/FIN segment.
#[derive(Debug)]
pub(super) enum RecvOutcome {
    /// Wholly duplicate bytes and no FIN to examine: just re-ACK.
    Stale,
    /// `rcv_nxt` advanced past the in-order views just handed to the
    /// delivery callback (possibly none, for a bare FIN); the orchestrator
    /// examines the FIN next.
    InOrder,
    /// Out of order: stashed (or refused), answered with a duplicate ACK.
    OutOfOrder {
        /// Eviction/conflict counts for the stats ledger.
        report: StashReport,
        /// Claimed to start beyond the advertised window — an injection.
        beyond_window: bool,
    },
}

/// Counter deltas produced by one reassembly-stash operation.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct StashReport {
    /// Stashes evicted because the segment or byte cap was hit.
    pub evictions: u64,
    /// Overlapping bytes that conflicted with already-received data.
    pub conflicts: u64,
}

/// The reliable-ordered-delivery component.
#[derive(Debug, Clone)]
pub(super) struct Rod {
    // Send side.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    /// Unacknowledged application data, by reference: queueing it, carving
    /// MSS-sized segments and draining on ACK copy nothing; only a segment
    /// that straddles two writes is gathered (a counted copy).
    snd_buf: PktQueue,
    // Receive side.
    rcv_nxt: u32,
    ooo: BTreeMap<u32, PktBuf>,
    /// Sequence number of a FIN that arrived beyond a hole: it takes
    /// effect when `rcv_nxt` reaches it. Forgetting it instead costs the
    /// peer a full RTO — a lone FIN draws no duplicate ACKs.
    ooo_fin: Option<u32>,
    // Loss detection (sequence space).
    dup_acks: u32,
    /// Duplicate ACKs that enter recovery: [`DUPTHRESH`], raised by one
    /// per episode a D-SACK proves spurious, reset by an RTO.
    dupthresh: u32,
    in_recovery: bool,
    recover: u32,
    undo: Option<Undo>,
}

impl Rod {
    pub fn new(iss: u32) -> Rod {
        Rod {
            iss,
            snd_una: iss,
            snd_nxt: iss.wrapping_add(1), // SYN occupies one sequence number
            snd_buf: PktQueue::new(),
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ooo_fin: None,
            dup_acks: 0,
            dupthresh: DUPTHRESH,
            in_recovery: false,
            recover: iss,
            undo: None,
        }
    }

    // --- send-side reads ---------------------------------------------------

    pub fn iss(&self) -> u32 {
        self.iss
    }

    pub fn snd_una(&self) -> u32 {
        self.snd_una
    }

    pub fn snd_nxt(&self) -> u32 {
        self.snd_nxt
    }

    /// Bytes in flight (`snd_nxt - snd_una`).
    pub fn flight(&self) -> usize {
        self.snd_nxt.wrapping_sub(self.snd_una) as usize
    }

    /// Any sequence numbers outstanding?
    pub fn has_flight(&self) -> bool {
        seq::lt(self.snd_una, self.snd_nxt)
    }

    /// Bytes buffered but not yet acknowledged.
    pub fn buffered(&self) -> usize {
        self.snd_buf.len()
    }

    /// Sequence number of the first byte in `snd_buf`: `snd_una` sits at
    /// the first unacked sequence number; if the SYN is still unacked the
    /// buffered data starts one later.
    fn data_base(&self, syn_unacked: bool) -> u32 {
        if syn_unacked {
            self.snd_una.wrapping_add(1)
        } else {
            self.snd_una
        }
    }

    /// Buffered bytes already carved into segments.
    fn sent_bytes(&self, syn_unacked: bool) -> usize {
        self.snd_nxt.wrapping_sub(self.data_base(syn_unacked)) as usize
    }

    /// Buffered bytes never sent.
    pub fn unsent_bytes(&self, syn_unacked: bool) -> usize {
        self.snd_buf.len().saturating_sub(self.sent_bytes(syn_unacked))
    }

    /// Any buffered bytes never sent?
    pub fn unsent(&self, syn_unacked: bool) -> bool {
        self.unsent_bytes(syn_unacked) > 0
    }

    /// Segments of new data the duplicate ACKs seen so far entitle the
    /// sender to beyond `cwnd` (RFC 3042 limited transmit): one per
    /// duplicate below the fast-retransmit threshold, however far a
    /// spurious episode has raised it. Inside recovery the
    /// congestion window itself inflates instead.
    pub fn limited_transmit_segments(&self) -> usize {
        if self.in_recovery {
            0
        } else {
            self.dup_acks as usize
        }
    }

    // --- send-side writes --------------------------------------------------

    /// Queues application bytes (refcount bump, no copy).
    pub fn buffer(&mut self, data: PktBuf) {
        self.snd_buf.push(data);
    }

    /// Carves the next never-sent chunk, up to `limit` bytes, advancing
    /// `snd_nxt`. Returns `(seq, payload, is_last_buffered_byte)`.
    pub fn carve_next(&mut self, syn_unacked: bool, limit: usize) -> Option<(u32, PktBuf, bool)> {
        let sent = self.sent_bytes(syn_unacked);
        let unsent = self.unsent_bytes(syn_unacked);
        if unsent == 0 || limit == 0 {
            return None;
        }
        let chunk = limit.min(unsent);
        let payload = self.snd_buf.view(sent, chunk);
        let seq_no = self.snd_nxt;
        self.snd_nxt = self.snd_nxt.wrapping_add(chunk as u32);
        Some((seq_no, payload, chunk == unsent))
    }

    /// Carves a one-byte zero-window probe beyond the peer's window.
    pub fn carve_probe(&mut self, syn_unacked: bool) -> Option<(u32, PktBuf)> {
        let sent = self.sent_bytes(syn_unacked);
        if sent >= self.snd_buf.len() {
            return None;
        }
        let payload = self.snd_buf.view(sent, 1);
        let seq_no = self.snd_nxt;
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        Some((seq_no, payload))
    }

    /// Allocates the FIN's sequence number (it consumes one).
    pub fn reserve_fin(&mut self) -> u32 {
        let seq_no = self.snd_nxt;
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        seq_no
    }

    /// The earliest outstanding data chunk, for retransmission: a view at
    /// `snd_una`, capped at `mss`, or `None` if no data sits there.
    pub fn retransmit_chunk(&self, syn_unacked: bool, mss: usize) -> Option<(u32, PktBuf)> {
        let data_base = self.data_base(syn_unacked);
        let offset = self.snd_una.wrapping_sub(data_base) as i64;
        if offset >= 0 && (offset as usize) < self.snd_buf.len() {
            let offset = offset as usize;
            let sent_bytes = self.snd_nxt.wrapping_sub(data_base) as usize;
            let outstanding = sent_bytes
                .saturating_sub(offset)
                .min(self.snd_buf.len() - offset);
            let chunk = mss
                .min(outstanding.max(1))
                .min(self.snd_buf.len() - offset);
            Some((self.snd_una, self.snd_buf.view(offset, chunk)))
        } else {
            None
        }
    }

    /// The handshake ACK arrived: record the peer's acknowledgement.
    pub fn complete_syn(&mut self, ack: u32) {
        self.snd_una = ack;
    }

    /// A forward ACK: drains `advanced` pre-counted bytes (SYN/FIN already
    /// deducted by ConnMgmt) from the send buffer and advances `snd_una`.
    /// Returns the bytes actually drained from the buffer.
    pub fn ack_advance(&mut self, ack: u32, advanced: usize) -> usize {
        let from_buf = advanced.min(self.snd_buf.len());
        self.snd_buf.advance(from_buf);
        self.snd_una = ack;
        from_buf
    }

    /// Classifies a forward ACK against the recovery episode, updating the
    /// recovery bookkeeping (this component's own state). A partial ACK
    /// retransmits, so a fast-recovery episode counts one more
    /// retransmission for a D-SACK to report.
    pub fn classify_ack(&mut self, ack: u32) -> AckClass {
        if self.in_recovery {
            if seq::ge(ack, self.recover) {
                self.in_recovery = false;
                self.dup_acks = 0;
                AckClass::RecoveryFull
            } else {
                if let Some(undo) = &mut self.undo {
                    undo.unreported += 1;
                }
                AckClass::RecoveryPartial
            }
        } else {
            self.dup_acks = 0;
            AckClass::Normal
        }
    }

    /// Counts a duplicate ACK and says what it means. Entering recovery
    /// opens an undo record for the episode, its fast retransmit counted.
    pub fn on_dup_ack(&mut self) -> DupSignal {
        self.dup_acks += 1;
        if self.in_recovery {
            DupSignal::Inflate
        } else if self.dup_acks >= self.dupthresh {
            self.recover = self.snd_nxt;
            self.in_recovery = true;
            self.undo = Some(Undo {
                start: self.snd_una,
                unreported: 1,
            });
            DupSignal::EnterRecovery
        } else {
            DupSignal::LimitedTransmit
        }
    }

    /// A D-SACK block `(left, right)` arrived: a SACK block at or below
    /// the cumulative ACK, as the orchestrator has checked. A block inside
    /// the open undo record's episode reports one of its retransmissions
    /// as needless; once all of them are, the episode was reordering, not
    /// loss: recovery ends, the duplicate-ACK threshold rises by one (to
    /// at most `thresh_cap`, but never below [`DUPTHRESH`]) and `true`
    /// says congestion control should undo its cut (RFC 3708).
    pub fn on_dsack(&mut self, (left, right): (u32, u32), thresh_cap: u32) -> bool {
        let Some(undo) = &mut self.undo else {
            return false;
        };
        let inside =
            seq::le(undo.start, left) && seq::lt(left, right) && seq::le(right, self.recover);
        if !inside {
            return false;
        }
        undo.unreported = undo.unreported.saturating_sub(1);
        if undo.unreported > 0 {
            return false;
        }
        self.undo = None;
        self.in_recovery = false;
        self.dup_acks = 0;
        self.dupthresh = (self.dupthresh + 1).min(thresh_cap.max(DUPTHRESH));
        true
    }

    /// An RTO abandons any fast-recovery episode (the retransmission path
    /// takes over), with its undo record, and forgets what reordering
    /// taught the duplicate-ACK threshold.
    pub fn reset_recovery(&mut self) {
        self.in_recovery = false;
        self.dup_acks = 0;
        self.dupthresh = DUPTHRESH;
        self.undo = None;
    }

    /// An RTO fired with data outstanding: open a go-back-N recovery
    /// episode covering everything sent so far. Partial ACKs below
    /// `recover` then retransmit the next hole ACK-clocked (one segment
    /// per RTT) instead of waiting a full backed-off RTO per segment.
    pub fn enter_rto_recovery(&mut self) {
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        self.dup_acks = 0;
    }

    // --- receive side ------------------------------------------------------

    pub fn rcv_nxt(&self) -> u32 {
        self.rcv_nxt
    }

    /// The part of a segment at `seg_seq` carrying `len` bytes that lies
    /// below `rcv_nxt` — bytes already received, which the ACK reports as
    /// a D-SACK block (RFC 2883).
    pub fn duplicate_range(&self, seg_seq: u32, len: usize) -> Option<(u32, u32)> {
        let end = seg_seq.wrapping_add(len as u32);
        let dup_end = if seq::lt(end, self.rcv_nxt) { end } else { self.rcv_nxt };
        (len > 0 && seq::lt(seg_seq, self.rcv_nxt)).then_some((seg_seq, dup_end))
    }

    /// Sets the initial receive sequence (SYN consumed).
    pub fn init_recv(&mut self, rcv_nxt: u32) {
        self.rcv_nxt = rcv_nxt;
    }

    /// Has in-order delivery caught up with a FIN that arrived early?
    pub fn stashed_fin_due(&self) -> bool {
        self.ooo_fin == Some(self.rcv_nxt)
    }

    /// The peer's FIN consumes one sequence number.
    pub fn consume_fin(&mut self) {
        self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
    }

    /// Accepts one data-bearing (or FIN-bearing) segment: trims duplicate
    /// bytes, hands in-order data plus any contiguous stashes to `deliver`
    /// in stream order, or stashes out-of-order data within the advertised
    /// window, under the `(segments, bytes)` caps of `ooo_caps`.
    pub fn accept_data(
        &mut self,
        seg_seq: u32,
        payload: PktBuf,
        fin: bool,
        recv_buf: usize,
        ooo_caps: (usize, usize),
        mut deliver: impl FnMut(PktBuf),
    ) -> RecvOutcome {
        let mut seq_no = seg_seq;
        let mut payload = payload;

        // Trim bytes we already have (sub-view, no copy).
        if seq::lt(seq_no, self.rcv_nxt) {
            let skip = self.rcv_nxt.wrapping_sub(seq_no) as usize;
            if skip >= payload.len() && !fin {
                return RecvOutcome::Stale;
            }
            payload = if skip < payload.len() {
                payload.slice(skip..)
            } else {
                PktBuf::empty()
            };
            seq_no = self.rcv_nxt;
        }

        if seq_no == self.rcv_nxt {
            if !payload.is_empty() {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
                deliver(payload);
                // Drain contiguous out-of-order data.
                while let Some((&s, _)) = self.ooo.first_key_value() {
                    if seq::gt(s, self.rcv_nxt) {
                        break;
                    }
                    let (s, data) = self.ooo.pop_first().expect("peeked");
                    let skip = self.rcv_nxt.wrapping_sub(s) as usize;
                    if skip < data.len() {
                        let fresh = data.slice(skip..);
                        self.rcv_nxt = self.rcv_nxt.wrapping_add(fresh.len() as u32);
                        deliver(fresh);
                    }
                }
            }
            RecvOutcome::InOrder
        } else {
            // Out of order. Data claiming to be from beyond our advertised
            // window cannot come from a well-behaved peer.
            let in_window = seq_no.wrapping_sub(self.rcv_nxt) as usize <= recv_buf;
            let mut report = StashReport::default();
            if in_window && fin {
                // First-received wins, as for the bytes below.
                self.ooo_fin
                    .get_or_insert(seq_no.wrapping_add(payload.len() as u32));
            }
            if in_window && !payload.is_empty() {
                report = self.stash_ooo(seq_no, payload, ooo_caps.0, ooo_caps.1);
            }
            RecvOutcome::OutOfOrder {
                report,
                beyond_window: !in_window,
            }
        }
    }

    /// Stashes an out-of-order payload with first-received-wins semantics:
    /// bytes already held for a sequence range are never replaced, so an
    /// attacker racing a retransmission with a conflicting copy cannot
    /// rewrite data that already arrived. Conflicting overlaps are counted,
    /// and the stash is bounded by the caller's segment and byte caps
    /// (furthest-from-delivery stashes are evicted first — they are the
    /// cheapest to retransmit and the likeliest to be hostile filler).
    fn stash_ooo(
        &mut self,
        seq_no: u32,
        payload: PktBuf,
        max_segments: usize,
        max_bytes: usize,
    ) -> StashReport {
        let mut report = StashReport::default();
        let mut seq_no = seq_no;
        let mut payload = payload;
        loop {
            // Skip bytes already held by the nearest stash starting at or
            // before us: first-received wins, a conflicting copy is counted.
            if let Some((&s, data)) = self.ooo.range(..=seq_no).next_back() {
                let end = s.wrapping_add(data.len() as u32);
                if seq::gt(end, seq_no) {
                    let off = seq_no.wrapping_sub(s) as usize;
                    let overlap = (end.wrapping_sub(seq_no) as usize).min(payload.len());
                    if data.as_slice()[off..off + overlap] != payload.as_slice()[..overlap] {
                        report.conflicts += 1;
                    }
                    if overlap == payload.len() {
                        return report; // fully covered by first-received bytes
                    }
                    payload = payload.slice(overlap..);
                    seq_no = end;
                    continue;
                }
            }
            // Insert up to the next stash the payload runs into, then carry
            // on with the remainder (which head-clips against that stash).
            let new_end = seq_no.wrapping_add(payload.len() as u32);
            match self.ooo.range(seq_no..).next() {
                Some((&s, _)) if seq::lt(s, new_end) => {
                    let cut = s.wrapping_sub(seq_no) as usize;
                    self.ooo.insert(seq_no, payload.slice(..cut));
                    payload = payload.slice(cut..);
                    seq_no = s;
                }
                _ => {
                    self.ooo.insert(seq_no, payload);
                    break;
                }
            }
        }
        let max_segs = max_segments.max(1);
        loop {
            let bytes: usize = self.ooo.values().map(PktBuf::len).sum();
            if self.ooo.len() <= max_segs && bytes <= max_bytes {
                break;
            }
            self.ooo.pop_last();
            report.evictions += 1;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    /// Feeds `(start, end)` byte ranges of `data` (stream offset 0 at
    /// sequence `base`) through `accept_data`, concatenating deliveries.
    fn feed(
        rod: &mut Rod,
        base: u32,
        data: &[u8],
        ranges: &[(usize, usize)],
        caps: (usize, usize),
    ) -> Vec<u8> {
        let mut got = Vec::new();
        for &(s, e) in ranges {
            rod.accept_data(
                base.wrapping_add(s as u32),
                PktBuf::from_vec(data[s..e].to_vec()),
                false,
                256 * 1024,
                caps,
                |v| got.extend_from_slice(&v),
            );
            // Component invariant: the stash never exceeds its caps.
            assert!(rod.ooo.len() <= caps.0.max(1), "segment cap held");
            let bytes: usize = rod.ooo.values().map(PktBuf::len).sum();
            assert!(bytes <= caps.1, "byte cap held");
        }
        got
    }

    #[test]
    fn carving_follows_the_sequence_space() {
        let mut rod = Rod::new(100);
        rod.complete_syn(101); // SYN acked; data base == snd_una
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        rod.buffer(PktBuf::from_vec(data[..4000].to_vec()));
        rod.buffer(PktBuf::from_vec(data[4000..].to_vec()));
        let mut carved = 0usize;
        while let Some((seq_no, payload, last)) = rod.carve_next(false, 1460) {
            assert_eq!(seq_no, 101 + carved as u32, "segments carve in sequence order");
            assert_eq!(payload, data[carved..carved + payload.len()]);
            carved += payload.len();
            assert_eq!(last, carved == data.len());
        }
        assert_eq!(rod.flight(), data.len());
        // Ack half: the buffer drains, a retransmit view starts at snd_una.
        rod.ack_advance(101 + 5000, 5000);
        assert_eq!(rod.buffered(), 5000);
        let (seq_no, chunk) = rod.retransmit_chunk(false, 1460).expect("data outstanding");
        assert_eq!(seq_no, 101 + 5000);
        assert_eq!(chunk.as_slice(), &data[5000..5000 + 1460]);
    }

    #[test]
    fn dup_ack_counting_enters_recovery_exactly_once() {
        let mut rod = Rod::new(0);
        rod.complete_syn(1);
        rod.buffer(PktBuf::from_vec(vec![0u8; 8000]));
        while rod.carve_next(false, 1460).is_some() {}
        assert_eq!(rod.on_dup_ack(), DupSignal::LimitedTransmit);
        assert_eq!(rod.limited_transmit_segments(), 1);
        assert_eq!(rod.on_dup_ack(), DupSignal::LimitedTransmit);
        assert_eq!(rod.limited_transmit_segments(), 2);
        assert_eq!(rod.on_dup_ack(), DupSignal::EnterRecovery);
        assert_eq!(rod.on_dup_ack(), DupSignal::Inflate);
        assert_eq!(rod.limited_transmit_segments(), 0, "recovery inflates cwnd instead");
        // A partial ACK stays in recovery; covering `recover` exits.
        assert_eq!(rod.classify_ack(1460), AckClass::RecoveryPartial);
        assert_eq!(rod.classify_ack(8001), AckClass::RecoveryFull);
        assert_eq!(rod.classify_ack(8001), AckClass::Normal);
    }

    mirage_testkit::property! {
        /// Reassembly vs the obvious reference model: any shuffled tiling
        /// of the stream, plus redundant overlapping extras, delivers
        /// exactly the original bytes once each — driven straight at the
        /// component, no wire or orchestrator involved.
        fn prop_reassembly_matches_reference(
            len in 200usize..6000,
            cuts in collection::vec(any::<usize>(), 1..12),
            extras in collection::vec((any::<usize>(), any::<usize>()), 0..8),
            shuffle in collection::vec(any::<usize>(), 4..32),
        ) {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let mut points: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
            points.push(0);
            points.push(len);
            points.sort_unstable();
            points.dedup();
            let mut ranges: Vec<(usize, usize)> =
                points.windows(2).map(|w| (w[0], w[1])).collect();
            for (a, b) in extras {
                let s = a % len;
                ranges.push((s, (s + 1 + b % 1460).min(len)));
            }
            // Split at the MSS, then shuffle deterministically.
            let mut segs = Vec::new();
            for (s, e) in ranges {
                let mut s = s;
                while s < e {
                    let seg_end = (s + 1460).min(e);
                    segs.push((s, seg_end));
                    s = seg_end;
                }
            }
            for i in (1..segs.len()).rev() {
                segs.swap(i, shuffle[i % shuffle.len()] % (i + 1));
            }
            let mut rod = Rod::new(0);
            rod.init_recv(101);
            let got = feed(&mut rod, 101, &data, &segs, (256, 256 * 1024));
            assert_eq!(got, data);
        }

        /// Tight caps bound the stash but never corrupt what is delivered:
        /// delivered bytes are always a prefix-consistent slice of the
        /// stream even when evictions discard stashes. The byte cap is
        /// drawn below the stream length, so it binds too.
        fn prop_bounded_stash_never_corrupts(
            len in 200usize..4000,
            cuts in collection::vec(any::<usize>(), 1..10),
            shuffle in collection::vec(any::<usize>(), 4..16),
            max_segs in 1usize..6,
            max_bytes in 64usize..2048,
        ) {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            let mut points: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
            points.push(0);
            points.push(len);
            points.sort_unstable();
            points.dedup();
            let mut segs: Vec<(usize, usize)> =
                points.windows(2).map(|w| (w[0], w[1])).collect();
            for i in (1..segs.len()).rev() {
                segs.swap(i, shuffle[i % shuffle.len()] % (i + 1));
            }
            let mut rod = Rod::new(0);
            rod.init_recv(500);
            let got = feed(&mut rod, 500, &data, &segs, (max_segs, max_bytes));
            // Evictions may lose suffix data (the sender would retransmit),
            // but whatever was delivered must be a correct prefix.
            assert!(got.len() <= data.len());
            assert_eq!(got, data[..got.len()], "delivered prefix is uncorrupted");
        }
    }
}
