//! TCP — a clean-room, sans-io state machine (paper §3.5, §4.1.3).
//!
//! "We compared the performance of Mirage's TCPv4 stack, implementing the
//! full connection lifecycle, fast retransmit and recovery, New Reno
//! congestion control, and window scaling, against the Linux 3.7 TCPv4
//! stack." This module implements exactly that feature list:
//!
//! * the full RFC 793 connection lifecycle (both open flavours, both close
//!   flavours, TIME-WAIT);
//! * retransmission with RFC 6298 RTO estimation, Karn's rule and
//!   exponential backoff;
//! * fast retransmit on three duplicate ACKs with **New Reno** partial-ACK
//!   recovery (RFC 6582), and **limited transmit** (RFC 3042): each
//!   duplicate below the threshold releases one new segment, so a window
//!   of three or four full segments still produces the third;
//! * **D-SACK** (RFC 2883, negotiated by SACK-permitted on both SYNs): an
//!   ACK answering data below `rcv_nxt` reports the duplicate range as its
//!   one SACK block, and the sender undoes a fast-recovery episode all of
//!   whose retransmissions were reported so (RFC 3708: `cwnd` and
//!   `ssthresh` back to at least their pre-loss values);
//! * an **adaptive duplicate-ACK threshold**: each undone episode raises
//!   it by one, to at most one less than the full segments the peer's
//!   window admits; an RTO puts it back to three;
//! * sender-side **silly-window avoidance** (RFC 1122 §4.2.3.4): data
//!   leaves in full-sized segments unless the segment empties the send
//!   buffer or the pipe is empty;
//! * slow start / congestion avoidance (RFC 5681), in the [`NewReno`]
//!   CongCtrl component;
//! * the window-scale option (RFC 7323 §2).
//!
//! # Component architecture (DESIGN.md §11)
//!
//! The implementation is decomposed into five components with *disjoint
//! write scopes* — the compile-time discipline of mlwip: every component's
//! state is private to its submodule, mutated only through `&mut self`
//! methods on that component, so a congestion-control bug structurally
//! cannot corrupt reassembly and vice versa.
//!
//! | Component | Module | Owns (writes) |
//! |---|---|---|
//! | ConnMgmt | [`conn`](self) | state machine, SYN/FIN flags, options (incl. SACK-permitted), RTT/RTO, rtx + TIME-WAIT timers |
//! | ROD | [`rod`](self) | `snd_una`/`snd_nxt`, send buffer, `rcv_nxt`, reassembly stash (and an early FIN), dup-ack counting and threshold, the undo record (episode range, unreported retransmissions) and D-SACK matching |
//! | FlowCtrl | [`flow`](self) | peer window `snd_wnd`, persist timer |
//! | CongCtrl | [`cong`] | `cwnd`, `ssthresh`, the pair saved before a fast retransmit |
//! | Demux | [`demux`] | one worker's id and flow indexes (used by the socket layer) |
//!
//! [`Connection`] is the orchestrator: it owns one instance of each
//! component, reads any of them, but writes none of their fields — every
//! state change goes through a component method. CongCtrl in particular
//! never sees a sequence number: ROD classifies each ACK/loss into an
//! [`AckSample`]/[`LossEvent`] and New Reno only moves windows.
//!
//! [`Connection`] is pure state: inputs are parsed segments and clock
//! readings, outputs are [`SegmentOut`]s to emit and [`Event`]s for the
//! application. The async socket layer in [`crate::stack`] drives it.
//!
//! Simplifications (documented, deliberate): the send buffer is unbounded
//! (the socket layer applies its own backpressure), the advertised receive
//! window is fixed rather than tracking application reads, ACKs are
//! immediate (no delayed-ACK timer), and there is no Nagle algorithm — a
//! short write that empties the buffer is sent at once, whatever is in
//! flight (the socket layer coalesces the writes of one poll iteration
//! instead). SACK is used for D-SACK only: the receiver sends no blocks for
//! out-of-order data, knowingly not following RFC 2018's "SHOULD", because
//! nothing here would read them — the sender keeps no scoreboard and
//! recovers one hole per RTT, as New Reno does.

use mirage_cstruct::PktBuf;
use mirage_hypervisor::Time;

mod config;
pub mod cong;
mod conn;
pub mod demux;
mod flow;
mod output;
mod recv;
mod rod;
mod wire;

pub use config::{
    ConfigError, TcpConfig, TcpConfigBuilder, MSS, OOO_MAX_BYTES, OOO_MAX_SEGMENTS, RTO_INIT, RTO_MIN,
    SYN_RETRIES, TIME_WAIT, WINDOW_SCALE,
};
pub use cong::{AckKind, AckSample, LossEvent, NewReno};
pub use conn::State;
pub use output::{seq, Event, Output, PollOutcome, TcpStats};
pub use wire::{build_segment, segment_len, write_segment, Flags, SegmentOut, TcpSegment};

use conn::{CloseAction, ConnMgmt};
use flow::FlowCtrl;
use rod::{AckClass, DupSignal, RecvOutcome, Rod};

const PSH_ACK: Flags = Flags {
    psh: true,
    ..Flags::ACK
};
const FIN_ACK: Flags = Flags {
    fin: true,
    ..Flags::ACK
};

/// The TCP connection orchestrator: one instance of each component, wired
/// together by intent-level method calls (see the module docs for the
/// write-scope table).
#[derive(Debug, Clone)]
pub struct Connection {
    /// Shared, immutable tuning: one allocation per stack, not per
    /// connection — at a million idle connections the per-conn copy of
    /// the config was the single largest avoidable line item.
    cfg: std::sync::Arc<TcpConfig>,
    /// Lifecycle, options, RTT/RTO (ConnMgmt component).
    cm: ConnMgmt,
    /// Reliable ordered delivery (ROD component).
    rod: Rod,
    /// Peer-window tracking + persist (FlowCtrl component).
    flow: FlowCtrl,
    /// New Reno congestion control (CongCtrl component).
    cc: NewReno,
    stats: TcpStats,
}

impl Connection {
    /// A passive-open connection awaiting a SYN.
    pub fn listen(cfg: impl Into<std::sync::Arc<TcpConfig>>, iss: u32) -> Connection {
        Connection::new(cfg.into(), iss, State::Listen)
    }

    /// An active open: returns the connection and the initial SYN.
    pub fn connect(
        cfg: impl Into<std::sync::Arc<TcpConfig>>,
        iss: u32,
        now: Time,
    ) -> (Connection, Output) {
        let mut c = Connection::new(cfg.into(), iss, State::SynSent);
        let syn = c.make_syn(false);
        c.cm.begin_handshake();
        c.cm.arm_rtx(now);
        (
            c,
            Output {
                segments: vec![syn],
                events: Vec::new(),
            },
        )
    }

    /// A connection reconstructed from a validated SYN-cookie ACK: the
    /// stateless handshake already completed on the wire, so the machine
    /// starts directly in [`State::Established`]. Options carried by the
    /// original SYN are lost (the classic SYN-cookie trade-off): the MSS is
    /// whatever the cookie encoded and window scaling is disabled.
    pub fn from_syn_cookie(
        cfg: impl Into<std::sync::Arc<TcpConfig>>,
        iss: u32,
        rcv_nxt: u32,
        peer_mss: usize,
        peer_window: u16,
    ) -> Connection {
        let mut c = Connection::new(cfg.into(), iss, State::Established);
        c.rod.complete_syn(iss.wrapping_add(1));
        c.cm.note_syn_acked();
        c.rod.init_recv(rcv_nxt);
        c.cm.set_peer_mss(peer_mss);
        c.flow.update_peer_window(peer_window as usize);
        c
    }

    fn new(cfg: std::sync::Arc<TcpConfig>, iss: u32, state: State) -> Connection {
        Connection {
            cm: ConnMgmt::new(state),
            rod: Rod::new(iss),
            flow: FlowCtrl::new(),
            cc: NewReno::new(MSS),
            stats: TcpStats::default(),
            cfg,
        }
    }

    /// Current state.
    pub fn state(&self) -> State {
        self.cm.state()
    }

    /// Counters, with the `cwnd` gauge sampled at call time.
    pub fn stats(&self) -> TcpStats {
        let mut s = self.stats;
        s.cwnd = self.cc.cwnd() as u64;
        s
    }

    /// Effective MSS towards the peer.
    pub fn effective_mss(&self) -> usize {
        MSS.min(self.cm.peer_mss())
    }

    /// Congestion window in bytes (ablation/bench introspection).
    pub fn cwnd(&self) -> usize {
        self.cc.cwnd()
    }

    /// Whether RFC 7323 window scaling was negotiated on.
    pub fn ws_enabled(&self) -> bool {
        self.cm.ws_enabled()
    }

    /// Bytes buffered but not yet acknowledged.
    pub fn unacked_bytes(&self) -> usize {
        self.rod.buffered()
    }

    fn my_window_field(&self) -> u16 {
        let shift = if self.cm.ws_enabled() { WINDOW_SCALE } else { 0 };
        self.flow.window_field(self.cfg.recv_buf, shift)
    }

    fn make_syn(&mut self, with_ack: bool) -> SegmentOut {
        self.stats.segs_out += 1;
        SegmentOut {
            seq: self.rod.iss(),
            ack: if with_ack { self.rod.rcv_nxt() } else { 0 },
            flags: Flags {
                syn: true,
                ack: with_ack,
                ..Flags::default()
            },
            window: self.cfg.recv_buf.min(u16::MAX as usize) as u16,
            mss: Some(MSS as u16),
            // RFC 7323 §1.3: a SYN+ACK offers scaling only to a SYN that
            // did, and RFC 2018 §2 SACK likewise.
            wscale: (!with_ack || self.cm.ws_enabled()).then_some(WINDOW_SCALE),
            sack_permitted: !with_ack || self.cm.sack_ok(),
            sack: None,
            payload: PktBuf::empty(),
        }
    }

    /// A segment of an open connection: what is being sent, beside the
    /// acknowledgement and window every such segment carries.
    fn segment(&self, seq: u32, flags: Flags, payload: PktBuf) -> SegmentOut {
        SegmentOut {
            seq,
            ack: self.rod.rcv_nxt(),
            flags,
            window: self.my_window_field(),
            mss: None,
            wscale: None,
            sack_permitted: false,
            sack: None,
            payload,
        }
    }

    fn make_ack(&mut self) -> SegmentOut {
        self.stats.segs_out += 1;
        self.segment(self.rod.snd_nxt(), Flags::ACK, PktBuf::empty())
    }

    /// An ACK reporting `dup`, bytes received twice, as its one D-SACK
    /// block (RFC 2883) — if the peer offered SACK.
    fn make_dsack_ack(&mut self, dup: Option<(u32, u32)>) -> SegmentOut {
        let mut ack = self.make_ack();
        ack.sack = dup.filter(|_| self.cm.sack_ok());
        ack
    }

    fn unacked_in_flight(&self) -> bool {
        self.cm.syn_unacked()
            || self.rod.has_flight()
            || (self.cm.fin_sent()
                && !matches!(
                    self.cm.state(),
                    State::FinWait2 | State::TimeWait | State::Closed
                ))
    }

    /// The earliest timer deadline, if any.
    pub fn next_deadline(&self) -> Option<Time> {
        let mut d = self.cm.time_wait_until();
        for t in [self.cm.rtx_deadline(), self.flow.persist_deadline()]
            .into_iter()
            .flatten()
        {
            d = Some(match d {
                Some(cur) => cur.min(t),
                None => t,
            });
        }
        d
    }

    /// Queues application data; returns segments to emit now.
    ///
    /// Accepts anything convertible to [`PktBuf`]; passing an owned
    /// `PktBuf`/`Vec<u8>` queues it by reference, passing a slice copies.
    pub fn app_send(&mut self, data: impl Into<PktBuf>, now: Time) -> Output {
        self.app_buffer(data);
        let mut out = Output::default();
        self.transmit(now, &mut out);
        out
    }

    /// Queues application data *without* transmitting — the socket layer
    /// uses this to coalesce several writes into one MSS-packed burst per
    /// poll iteration (paper §4.2's batched grants), flushing via
    /// [`Connection::transmit`] afterwards.
    pub fn app_buffer(&mut self, data: impl Into<PktBuf>) {
        debug_assert!(matches!(
            self.cm.state(),
            State::Established | State::CloseWait | State::SynSent | State::SynRcvd
        ));
        self.rod.buffer(data.into());
    }

    /// Initiates close; queues a FIN after all buffered data.
    pub fn app_close(&mut self, now: Time) -> Output {
        let mut out = Output::default();
        match self.cm.app_close() {
            CloseAction::QueueFin => self.transmit(now, &mut out),
            CloseAction::InstantClose => out.events.push(Event::Closed),
            CloseAction::Ignore => {}
        }
        out
    }

    /// Sends data allowed by the congestion and peer windows, in full-sized
    /// segments: a segment shorter than the MSS goes out only if it empties
    /// the send buffer or nothing is in flight (sender-side silly-window
    /// avoidance, RFC 1122 §4.2.3.4 — every ACK re-enters here, so a held
    /// sliver leaves as part of a full segment once the window opens).
    /// The segments are appended to `out`.
    pub fn transmit(&mut self, now: Time, out: &mut Output) {
        if !matches!(
            self.cm.state(),
            State::Established | State::CloseWait | State::FinWait1 | State::LastAck | State::Closing
        ) {
            return;
        }
        let appended_from = out.segments.len();
        let mss = self.effective_mss();
        // The orchestrator intersects the two windows; neither component
        // sees the other's. Duplicate ACKs below the fast-retransmit
        // threshold widen the congestion side by a segment each (RFC 3042).
        let wnd = (self.cc.cwnd() + self.rod.limited_transmit_segments() * mss)
            .min(self.flow.snd_wnd());
        loop {
            let in_flight = self.rod.flight();
            if in_flight >= wnd {
                break;
            }
            let budget = mss.min(wnd - in_flight);
            let unsent = self.rod.unsent_bytes(self.cm.syn_unacked());
            if budget < mss && budget < unsent && in_flight > 0 {
                break;
            }
            let Some((seq_no, payload, last)) = self.rod.carve_next(self.cm.syn_unacked(), budget)
            else {
                break;
            };
            self.stats.segs_out += 1;
            self.stats.bytes_out += payload.len() as u64;
            let flags = Flags {
                psh: last,
                ..Flags::ACK
            };
            out.segments.push(self.segment(seq_no, flags, payload));
            // Time the first unsampled transmission (its end is snd_nxt
            // right after the carve); a no-op while a sample is in flight.
            self.cm.take_rtt_sample(self.rod.snd_nxt(), now);
        }
        // FIN once everything is sent.
        if self.cm.fin_queued()
            && !self.cm.fin_sent()
            && !self.rod.unsent(self.cm.syn_unacked())
        {
            let fin_seq = self.rod.reserve_fin();
            self.cm.note_fin_sent(fin_seq);
            self.stats.segs_out += 1;
            out.segments.push(self.segment(fin_seq, FIN_ACK, PktBuf::empty()));
        }
        // Armed by what this call emitted, not by what `out` already held.
        if out.segments.len() > appended_from && self.cm.rtx_deadline().is_none() {
            self.cm.arm_rtx(now);
        }
        // Zero window with data waiting: arm the persist timer so a lost
        // window update cannot deadlock the connection.
        if self.flow.snd_wnd() == 0
            && !self.flow.persist_armed()
            && self.rod.unsent(self.cm.syn_unacked())
        {
            self.flow.arm_persist(now, self.cm.rto().max(RTO_MIN));
        }
    }

    /// Handles a timer expiry, returning the output plus the connection's
    /// next timer deadline.
    pub fn poll(&mut self, now: Time) -> PollOutcome {
        let output = self.poll_timers(now);
        PollOutcome {
            output,
            next_deadline: self.next_deadline(),
        }
    }

    fn poll_timers(&mut self, now: Time) -> Output {
        let mut out = Output::default();
        if self.cm.poll_time_wait(now) {
            out.events.push(Event::Closed);
            return out;
        }
        // Persist timer: probe a closed window with one byte beyond it,
        // backing off exponentially up to the RTO cap.
        if self.flow.persist_due(now) {
            if self.flow.snd_wnd() > 0 {
                // Window reopened since arming; nothing to probe.
                self.flow.cancel_persist();
            } else if let Some((seq_no, payload)) = self.rod.carve_probe(self.cm.syn_unacked()) {
                self.stats.segs_out += 1;
                self.stats.persist_probes += 1;
                out.segments.push(self.segment(seq_no, PSH_ACK, payload));
                self.flow.backoff_persist(now, self.cfg.rto_max);
            } else {
                self.flow.cancel_persist();
            }
        }
        let Some(deadline) = self.cm.rtx_deadline() else {
            return out;
        };
        if deadline > now {
            return out;
        }
        if !self.unacked_in_flight() {
            self.cm.clear_rtx();
            return out;
        }
        // RTO fired: back off the timer (Karn), abandon any fast-recovery
        // episode, tell congestion control, retransmit the earliest
        // outstanding segment (RFC 5681 §3.1).
        self.cm.rto_backoff(self.cfg.rto_max);
        self.rod.reset_recovery();
        if !matches!(self.cm.state(), State::SynSent | State::SynRcvd) {
            // Everything in flight is suspect: open a go-back-N episode so
            // each returning ACK retransmits the next hole immediately
            // instead of waiting out another (doubled) RTO per segment.
            self.rod.enter_rto_recovery();
        }
        match self.cm.state() {
            State::SynSent | State::SynRcvd => {
                if self.cm.bump_syn_attempt() {
                    self.cm.close_now();
                    out.events.push(Event::Reset);
                    return out;
                }
                let with_ack = self.cm.state() == State::SynRcvd;
                out.segments.push(self.make_syn(with_ack));
            }
            _ => {
                self.cc.on_loss(LossEvent::Timeout {
                    flight: self.rod.flight(),
                    mss: self.effective_mss(),
                });
                self.stats.rto_retransmits += 1;
                self.retransmit_front(&mut out);
            }
        }
        self.cm.arm_rtx(now);
        out
    }

    /// Appends the retransmission starting at `snd_una`: data if any,
    /// else the FIN.
    fn retransmit_front(&mut self, out: &mut Output) {
        if let Some((seq_no, payload)) = self
            .rod
            .retransmit_chunk(self.cm.syn_unacked(), self.effective_mss())
        {
            self.stats.segs_out += 1;
            out.segments.push(self.segment(seq_no, PSH_ACK, payload));
        } else if self.cm.fin_sent() && seq::le(self.rod.snd_una(), self.cm.fin_seq()) {
            self.stats.segs_out += 1;
            out.segments.push(self.segment(self.cm.fin_seq(), FIN_ACK, PktBuf::empty()));
        }
    }
}

#[cfg(test)]
mod tests;
