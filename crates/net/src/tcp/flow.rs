//! FlowCtrl — peer-window tracking and the zero-window persist timer.
//!
//! Write scope: `snd_wnd` (the peer's advertised window, after scaling)
//! and the persist-probe schedule (RFC 9293 §3.8.6.1). This component
//! never reads sequence numbers or the congestion window: the orchestrator
//! intersects `snd_wnd` with `cwnd` when carving segments, and ROD carves
//! the probe byte itself.

use mirage_hypervisor::{Dur, Time};

/// The flow-control component.
#[derive(Debug, Clone)]
pub(super) struct FlowCtrl {
    /// Peer's usable window in bytes (post-scaling).
    snd_wnd: usize,
    /// Zero-window persist timer.
    persist_deadline: Option<Time>,
    persist_interval: Dur,
}

impl FlowCtrl {
    /// Until the handshake reveals a window, assume one MSS.
    pub fn new() -> FlowCtrl {
        FlowCtrl {
            snd_wnd: super::MSS,
            persist_deadline: None,
            persist_interval: Dur::ZERO,
        }
    }

    /// The peer's current usable window.
    pub fn snd_wnd(&self) -> usize {
        self.snd_wnd
    }

    /// Records the (already unscaled) window from an acceptable segment.
    pub fn update_peer_window(&mut self, window: usize) {
        self.snd_wnd = window;
    }

    /// The raw 16-bit window field we advertise: the receive buffer shifted
    /// down by the negotiated scale, saturating at the field width.
    pub fn window_field(&self, recv_buf: usize, shift: u8) -> u16 {
        let scaled = recv_buf >> shift;
        scaled.min(u16::MAX as usize) as u16
    }

    // --- persist timer ------------------------------------------------------

    pub fn persist_deadline(&self) -> Option<Time> {
        self.persist_deadline
    }

    pub fn persist_armed(&self) -> bool {
        self.persist_deadline.is_some()
    }

    pub fn persist_due(&self, now: Time) -> bool {
        matches!(self.persist_deadline, Some(d) if d <= now)
    }

    /// Arms the first probe one `base` interval out (the current RTO).
    pub fn arm_persist(&mut self, now: Time, base: Dur) {
        self.persist_interval = base;
        self.persist_deadline = Some(now + self.persist_interval);
    }

    /// Doubles the probe interval, capped, and re-arms.
    pub fn backoff_persist(&mut self, now: Time, cap: Dur) {
        self.persist_interval =
            Dur::nanos((self.persist_interval.as_nanos() * 2).min(cap.as_nanos()));
        self.persist_deadline = Some(now + self.persist_interval);
    }

    pub fn cancel_persist(&mut self) {
        self.persist_deadline = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_updates_are_tracked_verbatim() {
        let mut flow = FlowCtrl::new();
        assert_eq!(flow.snd_wnd(), 1460, "pre-handshake window is one MSS");
        flow.update_peer_window(256 * 1024);
        assert_eq!(flow.snd_wnd(), 256 * 1024);
        flow.update_peer_window(0);
        assert_eq!(flow.snd_wnd(), 0);
    }

    mirage_testkit::property! {
        /// The advertised window field always fits the 16-bit header slot
        /// and never over-advertises the receive buffer once unscaled.
        fn prop_window_field_never_over_advertises(
            recv_buf in 0usize..(1 << 30),
            shift in 0u8..15,
        ) {
            let flow = FlowCtrl::new();
            let field = flow.window_field(recv_buf, shift);
            let unscaled = (field as usize) << shift;
            assert!(unscaled <= recv_buf.max((u16::MAX as usize) << shift));
            // When the buffer fits the field, the advertisement is exact
            // to scale granularity.
            if (recv_buf >> shift) <= u16::MAX as usize {
                assert_eq!(field as usize, recv_buf >> shift);
                assert!(unscaled <= recv_buf);
            }
        }

        /// Persist backoff is monotone non-decreasing, doubles until the
        /// cap, and never overshoots it.
        fn prop_persist_backoff_monotone_and_capped(
            base_ms in 1u64..5000,
            cap_ms in 1u64..120_000,
            probes in 1usize..24,
        ) {
            let base = Dur::millis(base_ms);
            let cap = Dur::millis(cap_ms.max(base_ms));
            let mut flow = FlowCtrl::new();
            let mut now = Time::ZERO;
            flow.arm_persist(now, base);
            let mut last = flow.persist_deadline().unwrap().since(now);
            for _ in 0..probes {
                now = flow.persist_deadline().unwrap();
                flow.backoff_persist(now, cap);
                let interval = flow.persist_deadline().unwrap().since(now);
                assert!(interval >= last, "backoff never shrinks");
                assert!(interval <= cap, "backoff capped");
                if last < cap {
                    let expect = (last.as_nanos() * 2).min(cap.as_nanos());
                    assert_eq!(interval.as_nanos(), expect, "exact doubling until the cap");
                }
                last = interval;
            }
            flow.cancel_persist();
            assert!(!flow.persist_armed());
        }
    }
}
