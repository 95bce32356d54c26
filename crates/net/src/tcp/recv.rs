//! The orchestrator's receive path: segment input, ACK processing and
//! payload delivery. A second `impl Connection` block — same write-scope
//! rules as `mod.rs`: the orchestrator reads any component but mutates
//! them only through their intent-level methods.

use mirage_hypervisor::Time;

use super::*;

impl Connection {
    /// Feeds an inbound segment through the state machine.
    pub fn on_segment(&mut self, seg: &TcpSegment, now: Time) -> Output {
        let mut out = Output::default();
        self.receive(seg, now, &mut out);
        out
    }

    /// [`Connection::on_segment`], appending what it answers to `out`.
    pub fn receive(&mut self, seg: &TcpSegment, now: Time, out: &mut Output) {
        self.stats.segs_in += 1;

        if seg.flags.rst {
            // RFC 5961-style validation: a blind attacker must land exactly
            // on rcv_nxt to tear the connection down. An in-window-but-off
            // RST draws a challenge ACK; anything else is dropped. Both are
            // counted as injection attempts.
            match self.cm.state() {
                State::Closed | State::Listen => {}
                State::SynSent => {
                    if seg.flags.ack && seg.ack == self.rod.iss().wrapping_add(1) {
                        self.cm.close_now();
                        out.events.push(Event::Reset);
                    } else {
                        self.stats.injections_dropped += 1;
                    }
                }
                _ => {
                    if seg.seq == self.rod.rcv_nxt() {
                        self.cm.close_now();
                        out.events.push(Event::Reset);
                    } else {
                        self.stats.injections_dropped += 1;
                        let in_window = seg.seq.wrapping_sub(self.rod.rcv_nxt()) as usize
                            <= self.cfg.recv_buf;
                        if in_window {
                            out.segments.push(self.make_ack());
                        }
                    }
                }
            }
            return;
        }

        match self.cm.state() {
            State::Closed => return,
            State::Listen => {
                if seg.flags.syn {
                    self.rod.init_recv(seg.seq.wrapping_add(1));
                    self.learn_options(seg);
                    self.cm.to_syn_rcvd();
                    let synack = self.make_syn(true);
                    out.segments.push(synack);
                    self.cm.begin_handshake();
                    self.cm.arm_rtx(now);
                }
                return;
            }
            State::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.rod.iss().wrapping_add(1) {
                    self.rod.init_recv(seg.seq.wrapping_add(1));
                    self.learn_options(seg);
                    self.rod.complete_syn(seg.ack);
                    self.cm.note_syn_acked();
                    self.flow.update_peer_window(self.scaled_window(seg));
                    self.cm.establish();
                    self.cm.clear_rtx();
                    out.segments.push(self.make_ack());
                    out.events.push(Event::Connected);
                    self.transmit(now, out);
                } else if seg.flags.syn && !seg.flags.ack {
                    // Simultaneous open.
                    self.rod.init_recv(seg.seq.wrapping_add(1));
                    self.learn_options(seg);
                    self.cm.to_syn_rcvd();
                    let synack = self.make_syn(true);
                    out.segments.push(synack);
                }
                return;
            }
            _ => {}
        }

        // --- ACK processing -------------------------------------------------
        if seg.flags.ack {
            self.process_ack(seg, now, out);
        }

        // --- payload + FIN --------------------------------------------------
        if !seg.payload.is_empty() || seg.flags.fin {
            self.process_payload(seg, now, out);
        }
    }

    fn learn_options(&mut self, seg: &TcpSegment) {
        self.cm.learn_options(seg.mss, seg.wscale);
    }

    fn scaled_window(&self, seg: &TcpSegment) -> usize {
        let shift = if self.cm.ws_enabled() && !seg.flags.syn {
            self.cm.peer_wscale()
        } else {
            0
        };
        (seg.window as usize) << shift
    }

    /// Reduces this ACK to what congestion control may know.
    fn ack_sample(&self, kind: AckKind, newly_acked: usize) -> AckSample {
        AckSample {
            kind,
            newly_acked,
            mss: self.effective_mss(),
        }
    }

    fn process_ack(&mut self, seg: &TcpSegment, now: Time, out: &mut Output) {
        let ack = seg.ack;
        if seq::gt(ack, self.rod.snd_nxt()) {
            // Acking data we never sent: ack back and bail.
            out.segments.push(self.make_ack());
            return;
        }
        self.flow.update_peer_window(self.scaled_window(seg));

        // A reopened window cancels the persist timer and releases any
        // data it was holding back — even on a pure window update that
        // advances nothing.
        if self.flow.snd_wnd() > 0 && self.flow.persist_armed() {
            self.flow.cancel_persist();
            self.transmit(now, out);
        }

        if seq::gt(ack, self.rod.snd_una()) {
            let mut advanced = ack.wrapping_sub(self.rod.snd_una()) as usize;
            // SYN consumes one sequence number.
            if self.cm.syn_unacked() {
                self.cm.note_syn_acked();
                advanced -= 1;
                if self.cm.state() == State::SynRcvd {
                    self.cm.establish();
                    out.events.push(Event::Connected);
                }
            }
            // FIN consumes one too.
            let mut fin_acked = false;
            if self.cm.fin_sent() && seq::ge(ack, self.cm.fin_seq().wrapping_add(1)) {
                advanced -= 1;
                fin_acked = true;
            }
            // Data bytes drain from the send buffer.
            let from_buf = self.rod.ack_advance(ack, advanced);

            // RTT sample (Karn-safe: sample invalidated on retransmit).
            self.cm.note_ack_for_rtt(ack, now, self.cfg.rto_max);

            // ROD classifies the ACK; congestion control reacts to the
            // classification, never to the sequence numbers.
            match self.rod.classify_ack(ack) {
                AckClass::RecoveryFull => {
                    self.cc.on_ack(self.ack_sample(AckKind::RecoveryExit, from_buf));
                }
                AckClass::RecoveryPartial => {
                    // Partial ACK: retransmit the next hole, deflate.
                    self.retransmit_front(out);
                    self.cc.on_ack(self.ack_sample(AckKind::Partial, from_buf));
                }
                AckClass::Normal => {
                    self.cc.on_ack(self.ack_sample(AckKind::New, from_buf));
                }
            }

            // Progress: re-arm or clear the retransmission timer.
            if self.unacked_in_flight() {
                self.cm.rearm_rtx_after_progress(now);
            } else {
                self.cm.clear_rtx();
            }

            // Close-sequence transitions driven by our FIN being acked.
            if fin_acked && self.cm.on_fin_acked(now) {
                out.events.push(Event::Closed);
            }
            self.transmit(now, out);
        } else if ack == self.rod.snd_una()
            && seg.payload.is_empty()
            && !seg.flags.fin
            && self.rod.has_flight()
            // ACKs elicited by persist probes are not loss signals.
            && !self.flow.persist_armed()
        {
            match self.rod.on_dup_ack() {
                DupSignal::EnterRecovery => {
                    // Fast retransmit + fast recovery (RFC 6582).
                    self.cc.on_loss(LossEvent::TripleDup {
                        flight: self.rod.flight(),
                        mss: self.effective_mss(),
                    });
                    self.stats.fast_retransmits += 1;
                    self.retransmit_front(out);
                }
                DupSignal::Inflate => {
                    // Window inflation per extra dup ack.
                    self.cc.on_ack(self.ack_sample(AckKind::Dup, 0));
                    self.transmit(now, out);
                }
                DupSignal::LimitedTransmit => {
                    // RFC 3042: the first two duplicates each release one
                    // new segment (`transmit` widens its window by the
                    // count), so a small window still produces the third.
                    self.transmit(now, out);
                }
            }
        }
    }

    fn process_payload(&mut self, seg: &TcpSegment, now: Time, out: &mut Output) {
        let (bytes_in, events) = (&mut self.stats.bytes_in, &mut out.events);
        let outcome = self.rod.accept_data(
            seg.seq,
            // A refcount bump: the event, the OOO stash and the caller all
            // share the received page.
            seg.payload.clone(),
            seg.flags.fin,
            self.cfg.recv_buf,
            (OOO_MAX_SEGMENTS, OOO_MAX_BYTES),
            |data| {
                *bytes_in += data.len() as u64;
                events.push(Event::Data(data));
            },
        );
        match outcome {
            RecvOutcome::Stale => {
                out.segments.push(self.make_ack());
            }
            RecvOutcome::InOrder => {
                // FIN processing: only once all data up to the FIN arrived,
                // whether the FIN rides this segment or came early.
                let fin_here = seg.flags.fin
                    && seg.seq.wrapping_add(seg.payload.len() as u32) == self.rod.rcv_nxt();
                if (fin_here || self.rod.stashed_fin_due()) && !self.cm.peer_fin_seen() {
                    self.rod.consume_fin();
                    self.cm.on_peer_fin(now);
                    out.events.push(Event::PeerFin);
                }
                out.segments.push(self.make_ack());
            }
            RecvOutcome::OutOfOrder {
                report,
                beyond_window,
            } => {
                self.stats.ooo_evictions += report.evictions;
                self.stats.overlap_conflicts += report.conflicts;
                if beyond_window {
                    self.stats.injections_dropped += 1;
                }
                out.segments.push(self.make_ack());
            }
        }
    }
}
