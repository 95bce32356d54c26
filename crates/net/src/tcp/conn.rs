//! ConnMgmt — connection lifecycle, negotiated options, and timers.
//!
//! Write scope: the RFC 793 state machine position, handshake and
//! teardown flags (SYN/FIN bookkeeping, TIME-WAIT), the options learned
//! from the peer's SYN (MSS, window scale), and the RFC 6298 RTT/RTO
//! estimator with its retransmission deadline. This component never
//! touches buffers, windows or `cwnd`: it answers "what state are we in,
//! what did we negotiate, when does the retransmit timer fire".

use mirage_hypervisor::{Dur, Time};

use super::config::{RTO_INIT, RTO_MIN, SYN_RETRIES, TIME_WAIT};
use super::seq;

/// The smallest peer MSS we send by: an advertised 0 would stall every
/// write and 1 would cut one into a segment per byte. Linux's
/// `tcp_min_snd_mss` default since CVE-2019-11479.
const MIN_PEER_MSS: usize = 48;

/// Connection state names (RFC 793 figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Passive open.
    Listen,
    /// Active open, SYN sent.
    SynSent,
    /// SYN received, SYN+ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent.
    FinWait1,
    /// Our FIN acked; awaiting peer FIN.
    FinWait2,
    /// Peer closed first.
    CloseWait,
    /// Simultaneous close.
    Closing,
    /// Our FIN after CloseWait.
    LastAck,
    /// Draining duplicates.
    TimeWait,
    /// Dead.
    Closed,
}

/// What an application close amounts to in the current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum CloseAction {
    /// A FIN was queued; flush the send path.
    QueueFin,
    /// Nothing was ever established: close on the spot.
    InstantClose,
    /// Already closing/closed: nothing to do.
    Ignore,
}

/// The connection-management component.
#[derive(Debug, Clone)]
pub(super) struct ConnMgmt {
    state: State,
    // Handshake.
    syn_unacked: bool,
    syn_attempts: u32,
    // Teardown.
    fin_queued: bool,
    fin_sent: bool,
    fin_seq: u32,
    peer_fin_seen: bool,
    time_wait_until: Option<Time>,
    // Negotiated options.
    peer_mss: usize,
    peer_wscale: u8,
    ws_enabled: bool,
    // RTT estimation (RFC 6298) + the retransmission deadline.
    srtt: Option<Dur>,
    rttvar: Dur,
    rto: Dur,
    rtx_deadline: Option<Time>,
    rtt_sample: Option<(u32, Time)>,
}

impl ConnMgmt {
    pub fn new(state: State) -> ConnMgmt {
        ConnMgmt {
            state,
            syn_unacked: true,
            syn_attempts: 0,
            fin_queued: false,
            fin_sent: false,
            fin_seq: 0,
            peer_fin_seen: false,
            time_wait_until: None,
            peer_mss: 536,
            peer_wscale: 0,
            ws_enabled: false,
            srtt: None,
            rttvar: Dur::ZERO,
            rto: RTO_INIT,
            rtx_deadline: None,
            rtt_sample: None,
        }
    }

    // --- state machine -----------------------------------------------------

    pub fn state(&self) -> State {
        self.state
    }

    /// A SYN arrived on a listener (or a simultaneous open crossed ours).
    pub fn to_syn_rcvd(&mut self) {
        self.state = State::SynRcvd;
    }

    pub fn establish(&mut self) {
        self.state = State::Established;
    }

    pub fn close_now(&mut self) {
        self.state = State::Closed;
        self.rtx_deadline = None;
    }

    /// An application close: pick the right close flavour for the state.
    pub fn app_close(&mut self) -> CloseAction {
        match self.state {
            State::Established => self.state = State::FinWait1,
            State::CloseWait => self.state = State::LastAck,
            State::SynSent | State::Listen => {
                self.state = State::Closed;
                return CloseAction::InstantClose;
            }
            _ => return CloseAction::Ignore,
        }
        self.fin_queued = true;
        CloseAction::QueueFin
    }

    /// Our FIN was acknowledged: walk the close sequence. Returns `true`
    /// when the connection just reached `Closed` (emit [`Event::Closed`]).
    pub fn on_fin_acked(&mut self, now: Time) -> bool {
        match self.state {
            State::FinWait1 => self.state = State::FinWait2,
            State::Closing => self.enter_time_wait(now),
            State::LastAck => {
                self.state = State::Closed;
                return true;
            }
            _ => {}
        }
        false
    }

    /// The peer's FIN arrived in order (all data before it delivered).
    pub fn on_peer_fin(&mut self, now: Time) {
        self.peer_fin_seen = true;
        match self.state {
            State::Established => self.state = State::CloseWait,
            State::FinWait1 => self.state = State::Closing,
            State::FinWait2 => self.enter_time_wait(now),
            _ => {}
        }
    }

    fn enter_time_wait(&mut self, now: Time) {
        self.state = State::TimeWait;
        self.rtx_deadline = None;
        self.time_wait_until = Some(now + TIME_WAIT);
    }

    /// Expires TIME-WAIT: returns `true` once, when 2MSL elapses.
    pub fn poll_time_wait(&mut self, now: Time) -> bool {
        if let Some(tw) = self.time_wait_until {
            if tw <= now {
                self.time_wait_until = None;
                self.state = State::Closed;
                return true;
            }
        }
        false
    }

    pub fn time_wait_until(&self) -> Option<Time> {
        self.time_wait_until
    }

    // --- handshake / teardown flags ----------------------------------------

    pub fn syn_unacked(&self) -> bool {
        self.syn_unacked
    }

    pub fn note_syn_acked(&mut self) {
        self.syn_unacked = false;
    }

    /// The first SYN (or SYN+ACK) went out.
    pub fn begin_handshake(&mut self) {
        self.syn_attempts = 1;
    }

    /// Another SYN retransmission; `true` once the retry budget is blown.
    pub fn bump_syn_attempt(&mut self) -> bool {
        self.syn_attempts += 1;
        self.syn_attempts > SYN_RETRIES
    }

    pub fn fin_queued(&self) -> bool {
        self.fin_queued
    }

    pub fn fin_sent(&self) -> bool {
        self.fin_sent
    }

    pub fn fin_seq(&self) -> u32 {
        self.fin_seq
    }

    pub fn note_fin_sent(&mut self, fin_seq: u32) {
        self.fin_seq = fin_seq;
        self.fin_sent = true;
    }

    pub fn peer_fin_seen(&self) -> bool {
        self.peer_fin_seen
    }

    // --- negotiated options ------------------------------------------------

    /// Learns MSS/window-scale from a SYN (RFC 7323: we always offer
    /// scaling, so it is on exactly when the peer offered it too). An MSS
    /// below [`MIN_PEER_MSS`] is raised to it.
    pub fn learn_options(&mut self, mss: Option<u16>, wscale: Option<u8>) {
        if let Some(mss) = mss {
            self.peer_mss = usize::from(mss).max(MIN_PEER_MSS);
        }
        self.ws_enabled = wscale.is_some();
        self.peer_wscale = wscale.map_or(0, |ws| ws.min(14));
    }

    pub fn peer_mss(&self) -> usize {
        self.peer_mss
    }

    /// Syn-cookie reconstruction: the original SYN's options are gone.
    pub fn set_peer_mss(&mut self, mss: usize) {
        self.peer_mss = mss;
    }

    pub fn peer_wscale(&self) -> u8 {
        self.peer_wscale
    }

    pub fn ws_enabled(&self) -> bool {
        self.ws_enabled
    }

    // --- RTT estimation and the retransmission timer -----------------------

    pub fn rto(&self) -> Dur {
        self.rto
    }

    pub fn rtx_deadline(&self) -> Option<Time> {
        self.rtx_deadline
    }

    pub fn arm_rtx(&mut self, now: Time) {
        self.rtx_deadline = Some(now + self.rto);
    }

    pub fn clear_rtx(&mut self) {
        self.rtx_deadline = None;
    }

    /// Progress was made: the backoff episode is over, so restore the
    /// estimator-derived RTO (Karn keeps retransmitted segments out of the
    /// estimator, so `srtt`/`rttvar` are untainted) and re-arm from `now`.
    pub fn rearm_rtx_after_progress(&mut self, now: Time) {
        if let Some(srtt) = self.srtt {
            let rto = Dur::nanos(srtt.as_nanos() + (4 * self.rttvar.as_nanos()).max(1));
            self.rto = rto.max(RTO_MIN);
        } else {
            self.rto = self.rto.max(RTO_MIN);
        }
        self.arm_rtx(now);
    }

    /// RTO fired: exponential backoff (capped) and Karn's rule — the
    /// in-flight RTT sample is void once anything is retransmitted.
    pub fn rto_backoff(&mut self, cap: Dur) {
        self.rto = Dur::nanos((self.rto.as_nanos() * 2).min(cap.as_nanos()));
        self.rtt_sample = None;
    }

    /// Starts timing one segment (first unsampled transmission only).
    pub fn take_rtt_sample(&mut self, end_seq: u32, now: Time) {
        if self.rtt_sample.is_none() {
            self.rtt_sample = Some((end_seq, now));
        }
    }

    /// An acceptable ACK arrived: if it covers the sampled segment, fold
    /// the measured RTT into the estimator (RFC 6298).
    pub fn note_ack_for_rtt(&mut self, ack: u32, now: Time, rto_max: Dur) {
        if let Some((sample_seq, sent_at)) = self.rtt_sample {
            if seq::ge(ack, sample_seq) {
                let rtt = now.saturating_since(sent_at);
                self.update_rto(rtt, rto_max);
                self.rtt_sample = None;
            }
        }
    }

    fn update_rto(&mut self, rtt: Dur, rto_max: Dur) {
        // RFC 6298.
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = Dur::nanos(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                let diff = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = Dur::nanos((3 * self.rttvar.as_nanos() + diff.as_nanos()) / 4);
                self.srtt = Some(Dur::nanos((7 * srtt.as_nanos() + rtt.as_nanos()) / 8));
            }
        }
        let rto = Dur::nanos(
            self.srtt.expect("just set").as_nanos() + (4 * self.rttvar.as_nanos()).max(1),
        );
        self.rto = rto.max(RTO_MIN);
        self.rto = Dur::nanos(self.rto.as_nanos().min(rto_max.as_nanos()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTO_MAX: Dur = Dur::secs(60);

    #[test]
    fn close_sequences_walk_the_rfc793_diagram() {
        // Active close: Established -> FinWait1 -> FinWait2 -> TimeWait.
        let mut cm = ConnMgmt::new(State::Established);
        assert_eq!(cm.app_close(), CloseAction::QueueFin);
        assert_eq!(cm.state(), State::FinWait1);
        assert!(!cm.on_fin_acked(Time::ZERO));
        assert_eq!(cm.state(), State::FinWait2);
        cm.on_peer_fin(Time::ZERO);
        assert_eq!(cm.state(), State::TimeWait);
        assert!(!cm.poll_time_wait(Time::ZERO + Dur::secs(1)));
        assert!(cm.poll_time_wait(Time::ZERO + Dur::secs(2)));
        assert_eq!(cm.state(), State::Closed);

        // Passive close: CloseWait -> LastAck -> Closed.
        let mut cm = ConnMgmt::new(State::Established);
        cm.on_peer_fin(Time::ZERO);
        assert_eq!(cm.state(), State::CloseWait);
        assert_eq!(cm.app_close(), CloseAction::QueueFin);
        assert_eq!(cm.state(), State::LastAck);
        assert!(cm.on_fin_acked(Time::ZERO), "LastAck ack closes");

        // Simultaneous close: FinWait1 + peer FIN -> Closing -> TimeWait.
        let mut cm = ConnMgmt::new(State::Established);
        cm.app_close();
        cm.on_peer_fin(Time::ZERO);
        assert_eq!(cm.state(), State::Closing);
        assert!(!cm.on_fin_acked(Time::ZERO));
        assert_eq!(cm.state(), State::TimeWait);

        // Pre-establishment close is instant.
        let mut cm = ConnMgmt::new(State::SynSent);
        assert_eq!(cm.app_close(), CloseAction::InstantClose);
        assert_eq!(cm.state(), State::Closed);
    }

    #[test]
    fn options_fold_in_only_when_both_sides_scale() {
        let mut cm = ConnMgmt::new(State::Listen);
        cm.learn_options(Some(1400), Some(20));
        assert_eq!(cm.peer_mss(), 1400);
        assert!(cm.ws_enabled());
        assert_eq!(cm.peer_wscale(), 14, "shift clamped at RFC 7323 max");
        cm.learn_options(None, None);
        assert!(!cm.ws_enabled(), "the peer did not offer scaling");
        assert_eq!(cm.peer_wscale(), 0);
        assert_eq!(cm.peer_mss(), 1400, "absent MSS option leaves the old value");
    }

    mirage_testkit::property! {
        /// The RTO estimator always lands inside [rto_min, rto_max] no
        /// matter what RTT sequence it measures (RFC 6298 clamping).
        fn prop_rto_always_clamped(rtts in mirage_testkit::prop::collection::vec(0u64..10_000_000_000, 1..50)) {
            let mut cm = ConnMgmt::new(State::Established);
            let mut now = Time::ZERO;
            let mut end_seq = 100u32;
            for rtt_ns in rtts {
                cm.take_rtt_sample(end_seq, now);
                now += Dur::nanos(rtt_ns);
                cm.note_ack_for_rtt(end_seq, now, RTO_MAX);
                assert!(cm.rto() >= RTO_MIN, "RTO floored");
                assert!(cm.rto() <= RTO_MAX, "RTO capped");
                end_seq = end_seq.wrapping_add(1460);
            }
        }

        /// Backoff doubles exactly until the cap and a fresh measurement
        /// re-floors it; Karn's rule voids the in-flight sample.
        fn prop_backoff_doubles_until_cap(fires in 1usize..20, cap_ms in 200u64..120_000) {
            let cap = Dur::millis(cap_ms);
            let mut cm = ConnMgmt::new(State::Established);
            cm.take_rtt_sample(500, Time::ZERO);
            let mut last = cm.rto();
            for _ in 0..fires {
                cm.rto_backoff(cap);
                let expect = (last.as_nanos() * 2).min(cap.as_nanos());
                assert_eq!(cm.rto().as_nanos(), expect);
                last = cm.rto();
            }
            // Karn: the sample taken before the backoff must not feed the
            // estimator afterwards.
            cm.note_ack_for_rtt(500, Time::ZERO + Dur::millis(1), RTO_MAX);
            assert_eq!(cm.srtt, None, "retransmitted sample discarded");
        }
    }
}
