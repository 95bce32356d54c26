//! CongCtrl — pluggable congestion control behind a narrow intent API.
//!
//! Write scope: `cwnd` / `ssthresh` (and per-algorithm epoch state), and
//! nothing else. The component never sees sequence numbers: the ROD
//! component classifies every acknowledgement and loss into an
//! [`AckSample`] or [`LossEvent`], and the algorithm only adjusts windows
//! in response (the mlwip discipline: CongCtrl cannot corrupt reliable
//! delivery because it cannot reach its state).
//!
//! Two algorithms ship:
//!
//! * [`NewReno`] — RFC 5681 slow start / congestion avoidance with
//!   RFC 6582 fast-recovery window bookkeeping. The default, and
//!   bit-for-bit the arithmetic the monolithic `tcp.rs` used.
//! * [`Cubic`] — RFC 8312 window growth `W(t) = C·(t−K)³ + W_max` driven
//!   by the deterministic virtual clock, with fast convergence and the
//!   TCP-friendly region. Selected via
//!   [`TcpConfig::builder`](super::TcpConfig::builder)`.congestion(CongAlg::Cubic)`.

use mirage_hypervisor::{Dur, Time};

/// Which congestion-control algorithm a connection runs. This is the
/// config-level selector ([`TcpConfig::congestion`](super::TcpConfig));
/// the per-connection state lives in the algorithm structs below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongAlg {
    /// RFC 6582 New Reno (the default, matching the paper's stack).
    #[default]
    NewReno,
    /// RFC 8312 CUBIC.
    Cubic,
}

impl CongAlg {
    /// Builds the per-connection algorithm state (IW10 over our MSS).
    pub(super) fn build(self) -> Cong {
        match self {
            CongAlg::NewReno => Cong::NewReno(NewReno::new(super::MSS)),
            CongAlg::Cubic => Cong::Cubic(Cubic::new(super::MSS)),
        }
    }
}

/// How the ROD component classified an acceptable acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckKind {
    /// New data acknowledged outside recovery.
    New,
    /// A duplicate ACK while in fast recovery (window inflation).
    Dup,
    /// A partial ACK inside New Reno recovery (deflate and retransmit).
    Partial,
    /// The ACK that completes recovery (collapse to `ssthresh`).
    RecoveryExit,
}

/// One acknowledgement, reduced to what congestion control may know:
/// byte counts and clock readings, never sequence numbers.
#[derive(Debug, Clone, Copy)]
pub struct AckSample {
    /// Classification from the reliable-delivery component.
    pub kind: AckKind,
    /// Send-buffer bytes this ACK newly covered.
    pub newly_acked: usize,
    /// Effective MSS towards the peer.
    pub mss: usize,
    /// Virtual-clock reading at processing time.
    pub now: Time,
    /// Smoothed RTT, once one has been measured.
    pub srtt: Option<Dur>,
}

/// A loss signal, reduced the same way.
#[derive(Debug, Clone, Copy)]
pub enum LossEvent {
    /// The retransmission timer fired.
    Timeout {
        /// Bytes in flight when the timer fired.
        flight: usize,
        /// Effective MSS towards the peer.
        mss: usize,
    },
    /// Three duplicate ACKs (fast retransmit).
    TripleDup {
        /// Bytes in flight when the third duplicate arrived.
        flight: usize,
        /// Effective MSS towards the peer.
        mss: usize,
    },
}

/// The pluggable congestion-control seam: five intent methods, no access
/// to connection internals.
pub trait CongestionControl {
    /// An acceptable ACK arrived, pre-classified by ROD.
    fn on_ack(&mut self, sample: AckSample);
    /// A loss signal (RTO or triple duplicate ACK).
    fn on_loss(&mut self, loss: LossEvent);
    /// The retransmission timer backed off (Karn). Called on every RTO
    /// fire, including SYN retransmissions that carry no [`LossEvent`].
    fn on_rto_backoff(&mut self);
    /// Current congestion window in bytes.
    fn cwnd(&self) -> usize;
    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> usize;
}

// --------------------------------------------------------------- New Reno

/// RFC 5681/6582 New Reno. Extracted verbatim from the monolithic state
/// machine: same IW10 start, same growth, same recovery arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewReno {
    cwnd: usize,
    ssthresh: usize,
}

impl NewReno {
    /// IW10 (as modern stacks, incl. Linux 3.7, use) over `mss`.
    pub fn new(mss: usize) -> NewReno {
        NewReno {
            cwnd: 10 * mss,
            ssthresh: usize::MAX / 2,
        }
    }
}

impl CongestionControl for NewReno {
    fn on_ack(&mut self, s: AckSample) {
        match s.kind {
            AckKind::New => {
                if self.cwnd < self.ssthresh {
                    self.cwnd += s.mss; // slow start
                } else {
                    self.cwnd += (s.mss * s.mss / self.cwnd).max(1); // avoidance
                }
            }
            // Window inflation per extra dup ack.
            AckKind::Dup => self.cwnd += s.mss,
            // Partial ACK: deflate by what the ACK covered, refill one MSS.
            AckKind::Partial => {
                self.cwnd = self.cwnd.saturating_sub(s.newly_acked) + s.mss;
            }
            // Full acknowledgement: leave recovery (New Reno).
            AckKind::RecoveryExit => self.cwnd = self.ssthresh,
        }
    }

    fn on_loss(&mut self, loss: LossEvent) {
        match loss {
            LossEvent::Timeout { flight, mss } => {
                self.ssthresh = (flight / 2).max(2 * mss);
                self.cwnd = mss;
            }
            LossEvent::TripleDup { flight, mss } => {
                self.ssthresh = (flight / 2).max(2 * mss);
                self.cwnd = self.ssthresh + 3 * mss;
            }
        }
    }

    fn on_rto_backoff(&mut self) {}

    fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn ssthresh(&self) -> usize {
        self.ssthresh
    }
}

// ------------------------------------------------------------------ CUBIC

/// RFC 8312 constants: the cubic scaling factor and the multiplicative
/// decrease applied on loss.
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;

/// RFC 8312 CUBIC. Window growth is a cubic function of virtual time
/// since the last loss epoch, anchored at the window where loss last
/// occurred (`w_max`), so the window re-probes quickly after a loss and
/// plateaus near the old operating point — the high-BDP win over New
/// Reno's one-MSS-per-RTT crawl. All arithmetic is `f64` over the
/// deterministic virtual clock: same binary, same seed, same trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cubic {
    cwnd: usize,
    ssthresh: usize,
    /// Window (in segments) at the last loss event.
    w_max: f64,
    /// Time (seconds) for the cubic to return to `w_max`.
    k: f64,
    /// Start of the current growth epoch; `None` forces re-anchoring on
    /// the next congestion-avoidance ACK.
    epoch_start: Option<Time>,
}

impl Cubic {
    /// IW10 over `mss`, no loss history.
    pub fn new(mss: usize) -> Cubic {
        Cubic {
            cwnd: 10 * mss,
            ssthresh: usize::MAX / 2,
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
        }
    }
}

impl CongestionControl for Cubic {
    fn on_ack(&mut self, s: AckSample) {
        let mss = s.mss.max(1);
        match s.kind {
            AckKind::New => {
                if self.cwnd < self.ssthresh {
                    self.cwnd += mss; // standard slow start (RFC 8312 §4.8)
                    return;
                }
                let fmss = mss as f64;
                let cwnd_seg = self.cwnd as f64 / fmss;
                let rtt = s
                    .srtt
                    .map(|d| d.as_secs_f64())
                    .unwrap_or(0.1)
                    .max(1e-6);
                let epoch = match self.epoch_start {
                    Some(t) => t,
                    None => {
                        // New epoch: anchor the cubic at the current
                        // window and aim back at w_max (RFC 8312 §4.1).
                        if self.w_max < cwnd_seg {
                            self.w_max = cwnd_seg;
                        }
                        self.k = ((self.w_max - cwnd_seg) / CUBIC_C).max(0.0).cbrt();
                        self.epoch_start = Some(s.now);
                        s.now
                    }
                };
                let t = s.now.saturating_since(epoch).as_secs_f64() + rtt;
                let target = CUBIC_C * (t - self.k).powi(3) + self.w_max;
                // TCP-friendly region (RFC 8312 §4.2): never slower than
                // a Reno flow that saw the same loss.
                let w_est = self.w_max * CUBIC_BETA
                    + 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) * (t / rtt);
                let next = target.max(w_est);
                if next > cwnd_seg {
                    // Spread the climb over the ACKs of one window, capped
                    // at slow-start pace; never shrink on an ACK.
                    let inc = (next - cwnd_seg) / cwnd_seg * fmss;
                    self.cwnd += (inc as usize).clamp(1, mss);
                }
            }
            AckKind::Dup => self.cwnd += mss,
            AckKind::Partial => {
                self.cwnd = self.cwnd.saturating_sub(s.newly_acked) + mss;
            }
            AckKind::RecoveryExit => self.cwnd = self.ssthresh,
        }
    }

    fn on_loss(&mut self, loss: LossEvent) {
        match loss {
            LossEvent::Timeout { flight: _, mss } => {
                let cwnd_seg = self.cwnd as f64 / mss.max(1) as f64;
                self.w_max = cwnd_seg;
                self.epoch_start = None;
                self.ssthresh = ((self.cwnd as f64 * CUBIC_BETA) as usize).max(2 * mss);
                self.cwnd = mss;
            }
            LossEvent::TripleDup { flight: _, mss } => {
                let cwnd_seg = self.cwnd as f64 / mss.max(1) as f64;
                // Fast convergence (RFC 8312 §4.6): when the window is
                // still below the previous w_max, release bandwidth early.
                self.w_max = if cwnd_seg < self.w_max {
                    cwnd_seg * (2.0 - CUBIC_BETA) / 2.0
                } else {
                    cwnd_seg
                };
                self.epoch_start = None;
                let reduced = ((self.cwnd as f64 * CUBIC_BETA) as usize).max(2 * mss);
                self.ssthresh = reduced;
                self.cwnd = reduced;
            }
        }
    }

    fn on_rto_backoff(&mut self) {
        // Karn backoff invalidates the epoch clock anchoring.
        self.epoch_start = None;
    }

    fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn ssthresh(&self) -> usize {
        self.ssthresh
    }
}

// ------------------------------------------------------------- dispatcher

/// The per-connection algorithm state: a closed enum rather than a
/// `Box<dyn CongestionControl>` so a connection stays `Clone`, allocates
/// nothing (the C1M budget counts every byte), and still dispatches every
/// call through the [`CongestionControl`] trait.
#[derive(Debug, Clone)]
pub(super) enum Cong {
    NewReno(NewReno),
    Cubic(Cubic),
}

impl Cong {
    fn inner_mut(&mut self) -> &mut dyn CongestionControl {
        match self {
            Cong::NewReno(a) => a,
            Cong::Cubic(a) => a,
        }
    }

    fn inner(&self) -> &dyn CongestionControl {
        match self {
            Cong::NewReno(a) => a,
            Cong::Cubic(a) => a,
        }
    }
}

impl CongestionControl for Cong {
    fn on_ack(&mut self, sample: AckSample) {
        self.inner_mut().on_ack(sample)
    }

    fn on_loss(&mut self, loss: LossEvent) {
        self.inner_mut().on_loss(loss)
    }

    fn on_rto_backoff(&mut self) {
        self.inner_mut().on_rto_backoff()
    }

    fn cwnd(&self) -> usize {
        self.inner().cwnd()
    }

    fn ssthresh(&self) -> usize {
        self.inner().ssthresh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::collection;

    const MSS: usize = 1460;

    fn sample(kind: AckKind, newly_acked: usize, at_ms: u64) -> AckSample {
        AckSample {
            kind,
            newly_acked,
            mss: MSS,
            now: Time::ZERO + Dur::millis(at_ms),
            srtt: Some(Dur::millis(10)),
        }
    }

    /// Both algorithms behind one trait object — the seam the config
    /// selector rides.
    fn algs() -> Vec<(&'static str, Box<dyn CongestionControl>)> {
        vec![
            ("newreno", Box::new(NewReno::new(MSS))),
            ("cubic", Box::new(Cubic::new(MSS))),
        ]
    }

    #[test]
    fn newreno_matches_the_extracted_arithmetic() {
        let mut cc = NewReno::new(MSS);
        assert_eq!(cc.cwnd(), 10 * MSS);
        assert_eq!(cc.ssthresh(), usize::MAX / 2);
        // Slow start: one MSS per ACK.
        cc.on_ack(sample(AckKind::New, MSS, 1));
        assert_eq!(cc.cwnd(), 11 * MSS);
        // Timeout: ssthresh = max(flight/2, 2*MSS), cwnd = 1 MSS.
        cc.on_loss(LossEvent::Timeout {
            flight: 8 * MSS,
            mss: MSS,
        });
        assert_eq!(cc.ssthresh(), 4 * MSS);
        assert_eq!(cc.cwnd(), MSS);
        // Above ssthresh: congestion avoidance, additive increase.
        for ms in 0..8u64 {
            cc.on_ack(sample(AckKind::New, MSS, 2 + ms));
        }
        let before = cc.cwnd();
        cc.on_ack(sample(AckKind::New, MSS, 20));
        assert_eq!(cc.cwnd(), before + (MSS * MSS / before).max(1));
        // Triple dup: halve flight, inflate by 3 MSS.
        cc.on_loss(LossEvent::TripleDup {
            flight: 10 * MSS,
            mss: MSS,
        });
        assert_eq!(cc.ssthresh(), 5 * MSS);
        assert_eq!(cc.cwnd(), 5 * MSS + 3 * MSS);
        // Recovery exit collapses to ssthresh.
        cc.on_ack(sample(AckKind::RecoveryExit, 0, 30));
        assert_eq!(cc.cwnd(), 5 * MSS);
    }

    #[test]
    fn losses_shrink_both_algorithms() {
        for (name, mut cc) in algs() {
            for ms in 0..40u64 {
                cc.on_ack(sample(AckKind::New, MSS, ms));
            }
            let grown = cc.cwnd();
            cc.on_loss(LossEvent::TripleDup {
                flight: grown,
                mss: MSS,
            });
            assert!(cc.cwnd() < grown, "{name}: triple-dup reduces cwnd");
            assert!(cc.ssthresh() < grown, "{name}: ssthresh drops below old cwnd");
            cc.on_loss(LossEvent::Timeout {
                flight: cc.cwnd(),
                mss: MSS,
            });
            assert_eq!(cc.cwnd(), MSS, "{name}: timeout collapses to one MSS");
        }
    }

    #[test]
    fn cubic_reprobes_faster_than_newreno_after_loss() {
        // After the same loss at the same window, CUBIC's cubic re-probe
        // must regain the old operating point in fewer ACK-clock ticks
        // than New Reno's one-MSS-per-RTT climb — the premise of the
        // `cc_race` example.
        let w0 = 100 * MSS;
        let mut acked = 0u64;
        let recover = |cc: &mut dyn CongestionControl| -> u64 {
            cc.on_loss(LossEvent::TripleDup {
                flight: w0,
                mss: MSS,
            });
            cc.on_ack(sample(AckKind::RecoveryExit, 0, 0));
            let mut ticks = 0u64;
            while cc.cwnd() < w0 && ticks < 100_000 {
                // 10ms RTT, ~cwnd/MSS ACKs per RTT compressed to 1ms apart.
                cc.on_ack(sample(AckKind::New, MSS, ticks));
                ticks += 1;
            }
            ticks
        };
        let mut reno = NewReno::new(MSS);
        let mut cubic = Cubic::new(MSS);
        // Grow both to w0 first so ssthresh/w_max history is comparable.
        while reno.cwnd() < w0 {
            reno.on_ack(sample(AckKind::New, MSS, acked));
            acked += 1;
        }
        while cubic.cwnd() < w0 {
            cubic.on_ack(sample(AckKind::New, MSS, acked));
            acked += 1;
        }
        let reno_ticks = recover(&mut reno);
        let cubic_ticks = recover(&mut cubic);
        assert!(
            cubic_ticks < reno_ticks,
            "cubic {cubic_ticks} ticks vs newreno {reno_ticks} ticks"
        );
    }

    mirage_testkit::property! {
        /// Ack-only traces never shrink the window, for either algorithm:
        /// cwnd is monotone non-decreasing under New acks (the per-component
        /// spot check that congestion control cannot regress reliability).
        fn prop_cwnd_monotone_under_acks(
            gaps in collection::vec(1u64..50, 1..200),
            mss in 536usize..9000,
        ) {
            for (name, mut cc) in [
                ("newreno", Box::new(NewReno::new(mss)) as Box<dyn CongestionControl>),
                ("cubic", Box::new(Cubic::new(mss))),
            ] {
                let mut now = Time::ZERO;
                let mut prev = cc.cwnd();
                for gap in &gaps {
                    now += Dur::millis(*gap);
                    cc.on_ack(AckSample {
                        kind: AckKind::New,
                        newly_acked: mss,
                        mss,
                        now,
                        srtt: Some(Dur::millis(*gap)),
                    });
                    assert!(cc.cwnd() >= prev, "{name}: cwnd shrank on an ACK");
                    assert!(cc.cwnd() <= prev + mss, "{name}: cwnd jumped more than one MSS per ACK");
                    prev = cc.cwnd();
                }
            }
        }

        /// Loss arithmetic invariants hold for arbitrary flight sizes.
        fn prop_loss_floors(flight in 0usize..100_000_000, mss in 536usize..9000) {
            for (name, mut cc) in [
                ("newreno", Box::new(NewReno::new(mss)) as Box<dyn CongestionControl>),
                ("cubic", Box::new(Cubic::new(mss))),
            ] {
                cc.on_loss(LossEvent::TripleDup { flight, mss });
                assert!(cc.ssthresh() >= 2 * mss, "{name}: ssthresh floored at 2 MSS");
                assert!(cc.cwnd() >= 2 * mss, "{name}: cwnd floored after fast retransmit");
                cc.on_loss(LossEvent::Timeout { flight, mss });
                assert_eq!(cc.cwnd(), mss, "{name}: timeout always collapses to one MSS");
                assert!(cc.ssthresh() >= 2 * mss, "{name}: ssthresh floored at 2 MSS");
            }
        }
    }
}
