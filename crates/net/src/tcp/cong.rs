//! CongCtrl — RFC 5681 / RFC 6582 New Reno behind a narrow intent API.
//!
//! Write scope: `cwnd` / `ssthresh`, and nothing else. The component
//! never sees sequence numbers: the ROD component classifies every
//! acknowledgement and loss into an [`AckSample`] or [`LossEvent`], and
//! [`NewReno`] only adjusts windows in response (the mlwip discipline:
//! CongCtrl cannot corrupt reliable delivery because it cannot reach its
//! state).

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
/// byte counts, never sequence numbers.
#[derive(Debug, Clone, Copy)]
pub struct AckSample {
    /// Classification from the reliable-delivery component.
    pub kind: AckKind,
    /// Send-buffer bytes this ACK newly covered.
    pub newly_acked: usize,
    /// Effective MSS towards the peer.
    pub mss: usize,
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

    /// An acceptable ACK arrived, pre-classified by ROD.
    pub fn on_ack(&mut self, s: AckSample) {
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

    /// A loss signal (RTO or triple duplicate ACK).
    pub fn on_loss(&mut self, loss: LossEvent) {
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

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> usize {
        self.ssthresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1460;

    fn sample(kind: AckKind, newly_acked: usize) -> AckSample {
        AckSample {
            kind,
            newly_acked,
            mss: MSS,
        }
    }

    #[test]
    fn newreno_matches_the_extracted_arithmetic() {
        let mut cc = NewReno::new(MSS);
        assert_eq!(cc.cwnd(), 10 * MSS);
        assert_eq!(cc.ssthresh(), usize::MAX / 2);
        // Slow start: one MSS per ACK.
        cc.on_ack(sample(AckKind::New, MSS));
        assert_eq!(cc.cwnd(), 11 * MSS);
        // Timeout: ssthresh = max(flight/2, 2*MSS), cwnd = 1 MSS.
        cc.on_loss(LossEvent::Timeout {
            flight: 8 * MSS,
            mss: MSS,
        });
        assert_eq!(cc.ssthresh(), 4 * MSS);
        assert_eq!(cc.cwnd(), MSS);
        // Above ssthresh: congestion avoidance, additive increase.
        for _ in 0..8 {
            cc.on_ack(sample(AckKind::New, MSS));
        }
        let before = cc.cwnd();
        cc.on_ack(sample(AckKind::New, MSS));
        assert_eq!(cc.cwnd(), before + (MSS * MSS / before).max(1));
        // Triple dup: halve flight, inflate by 3 MSS.
        cc.on_loss(LossEvent::TripleDup {
            flight: 10 * MSS,
            mss: MSS,
        });
        assert_eq!(cc.ssthresh(), 5 * MSS);
        assert_eq!(cc.cwnd(), 5 * MSS + 3 * MSS);
        // Recovery exit collapses to ssthresh.
        cc.on_ack(sample(AckKind::RecoveryExit, 0));
        assert_eq!(cc.cwnd(), 5 * MSS);
    }

    #[test]
    fn losses_shrink_the_window() {
        let mut cc = NewReno::new(MSS);
        for _ in 0..40 {
            cc.on_ack(sample(AckKind::New, MSS));
        }
        let grown = cc.cwnd();
        cc.on_loss(LossEvent::TripleDup {
            flight: grown,
            mss: MSS,
        });
        assert!(cc.cwnd() < grown, "triple-dup reduces cwnd");
        assert!(cc.ssthresh() < grown, "ssthresh drops below old cwnd");
        cc.on_loss(LossEvent::Timeout {
            flight: cc.cwnd(),
            mss: MSS,
        });
        assert_eq!(cc.cwnd(), MSS, "timeout collapses to one MSS");
    }

    mirage_testkit::property! {
        /// Ack-only traces never shrink the window: cwnd is monotone
        /// non-decreasing under New acks (the per-component spot check that
        /// congestion control cannot regress reliability).
        fn prop_cwnd_monotone_under_acks(
            acks in 1usize..200,
            mss in 536usize..9000,
        ) {
            let mut cc = NewReno::new(mss);
            let mut prev = cc.cwnd();
            for _ in 0..acks {
                cc.on_ack(AckSample {
                    kind: AckKind::New,
                    newly_acked: mss,
                    mss,
                });
                assert!(cc.cwnd() >= prev, "cwnd shrank on an ACK");
                assert!(cc.cwnd() <= prev + mss, "cwnd jumped more than one MSS per ACK");
                prev = cc.cwnd();
            }
        }

        /// Loss arithmetic invariants hold for arbitrary flight sizes.
        fn prop_loss_floors(flight in 0usize..100_000_000, mss in 536usize..9000) {
            let mut cc = NewReno::new(mss);
            cc.on_loss(LossEvent::TripleDup { flight, mss });
            assert!(cc.ssthresh() >= 2 * mss, "ssthresh floored at 2 MSS");
            assert!(cc.cwnd() >= 2 * mss, "cwnd floored after fast retransmit");
            cc.on_loss(LossEvent::Timeout { flight, mss });
            assert_eq!(cc.cwnd(), mss, "timeout always collapses to one MSS");
            assert!(cc.ssthresh() >= 2 * mss, "ssthresh floored at 2 MSS");
        }
    }
}
