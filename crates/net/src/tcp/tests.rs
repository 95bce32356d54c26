//! Orchestrator-level tests: two [`Connection`]s talking over real
//! serialisation. Per-component tests live in each component's submodule;
//! these exercise the composition.

use super::*;
use mirage_hypervisor::Dur;
use mirage_testkit::prop::{any, collection};
use std::net::Ipv4Addr;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Wire-level pump: carries segments between two connections with an
/// optional per-segment fault hook, via real serialisation.
fn pump(
    a: &mut Connection,
    b: &mut Connection,
    a_out: &mut Vec<SegmentOut>,
    b_out: &mut Vec<SegmentOut>,
    now: &mut Time,
    mut fault: impl FnMut(usize, bool) -> bool, // (index, a_to_b) -> deliver?
) -> (Vec<Event>, Vec<Event>) {
    let mut ev_a = Vec::new();
    let mut ev_b = Vec::new();
    let mut idx = 0;
    for _ in 0..400 {
        *now += Dur::millis(1);
        let mut quiet = true;
        for seg in std::mem::take(a_out) {
            let wire = PktBuf::from_vec(build_segment(A, 1000, B, 2000, &seg));
            idx += 1;
            if !fault(idx, true) {
                continue;
            }
            let parsed = TcpSegment::parse(A, B, &wire).expect("valid segment");
            let out = b.on_segment(&parsed, *now);
            b_out.extend(out.segments);
            ev_b.extend(out.events);
            quiet = false;
        }
        for seg in std::mem::take(b_out) {
            let wire = PktBuf::from_vec(build_segment(B, 2000, A, 1000, &seg));
            idx += 1;
            if !fault(idx, false) {
                continue;
            }
            let parsed = TcpSegment::parse(B, A, &wire).expect("valid segment");
            let out = a.on_segment(&parsed, *now);
            a_out.extend(out.segments);
            ev_a.extend(out.events);
            quiet = false;
        }
        if quiet {
            // Let timers fire (jump to the next deadline).
            let next = [a.next_deadline(), b.next_deadline()]
                .into_iter()
                .flatten()
                .min();
            match next {
                Some(t) => {
                    *now = (*now).max(t);
                    let oa = a.poll(*now).output;
                    a_out.extend(oa.segments);
                    ev_a.extend(oa.events);
                    let ob = b.poll(*now).output;
                    b_out.extend(ob.segments);
                    ev_b.extend(ob.events);
                    if a_out.is_empty() && b_out.is_empty() {
                        break;
                    }
                }
                None => break,
            }
        }
    }
    (ev_a, ev_b)
}

/// Handshake between a client and a server on the default config. Without
/// `peer_scales` the client's SYN loses its window-scale option in flight,
/// so the server meets a peer without RFC 7323.
fn handshake_with(peer_scales: bool) -> (Connection, Connection, Vec<SegmentOut>, Vec<SegmentOut>, Time) {
    handshake_offering(peer_scales, true)
}

/// [`handshake_with`], and without `peer_sacks` the client's SYN loses
/// its SACK-permitted option too.
fn handshake_offering(
    peer_scales: bool,
    peer_sacks: bool,
) -> (Connection, Connection, Vec<SegmentOut>, Vec<SegmentOut>, Time) {
    let mut now = Time::ZERO;
    let cfg = std::sync::Arc::new(TcpConfig::default());
    let (mut client, out) = Connection::connect(cfg.clone(), 100, now);
    let mut server = Connection::listen(cfg, 9000);
    let mut c_out = out.segments;
    if !peer_scales {
        c_out[0].wscale = None;
    }
    c_out[0].sack_permitted &= peer_sacks;
    let mut s_out = Vec::new();
    let (ev_c, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert!(ev_c.contains(&Event::Connected));
    assert!(ev_s.contains(&Event::Connected));
    assert_eq!(client.state(), State::Established);
    assert_eq!(server.state(), State::Established);
    (client, server, c_out, s_out, now)
}

fn handshake() -> (Connection, Connection, Vec<SegmentOut>, Vec<SegmentOut>, Time) {
    handshake_with(true)
}

/// Delivers a hand-crafted segment from B to the client over real
/// serialisation.
fn deliver_from_b(client: &mut Connection, seg: &SegmentOut, now: Time) -> Output {
    let wire = PktBuf::from_vec(build_segment(B, 2000, A, 1000, seg));
    let parsed = TcpSegment::parse(B, A, &wire).expect("valid segment");
    client.on_segment(&parsed, now)
}

#[test]
fn zero_window_persist_probes_with_backoff_until_reopen() {
    let (mut client, _server, _c_out, _s_out, mut now) = handshake();
    // Peer advertises a zero window (pure window update: no data, no
    // sequence advance).
    let out = deliver_from_b(
        &mut client,
        &SegmentOut {
            seq: 9001,
            ack: 101,
            flags: Flags::ACK,
            window: 0,
            mss: None,
            wscale: None,
            sack_permitted: false,
            sack: None,
            payload: PktBuf::empty(),
        },
        now,
    );
    assert!(out.segments.is_empty());

    // Data queues but cannot be sent; the persist timer arms instead.
    let queued = 5000usize;
    let out = client.app_send(vec![0xAB; queued], now);
    assert!(out.segments.is_empty(), "zero window must block transmission");
    let mut deadline = client.next_deadline().expect("persist timer armed");
    let mut last_interval = deadline.since(now);

    // Probes carry exactly one byte each and back off exponentially,
    // capped at rto_max.
    let probes = 8u64;
    for i in 0..probes {
        now = deadline;
        let out = client.poll(now).output;
        assert_eq!(out.segments.len(), 1, "probe {i}");
        assert_eq!(out.segments[0].payload.len(), 1, "one byte per probe");
        assert_eq!(client.stats().persist_probes, i + 1);
        deadline = client.next_deadline().expect("persist re-armed");
        let interval = deadline.since(now);
        assert!(interval >= last_interval, "backoff never shrinks");
        assert!(interval <= TcpConfig::default().rto_max, "backoff capped");
        if i > 0 && last_interval < TcpConfig::default().rto_max {
            assert!(interval > last_interval, "backoff grows until the cap");
        }
        last_interval = interval;
        // The peer acks each probe at snd_una with the window still
        // closed; that must not look like dup-ack loss signals.
        let out = deliver_from_b(
            &mut client,
            &SegmentOut {
                seq: 9001,
                ack: 101,
                flags: Flags::ACK,
                window: 0,
                mss: None,
                wscale: None,
                sack_permitted: false,
                sack: None,
                payload: PktBuf::empty(),
            },
            now,
        );
        assert!(out.segments.is_empty());
    }
    assert_eq!(client.stats().fast_retransmits, 0, "probe acks are not loss");

    // The receiver frees its buffer: window reopens, covering the
    // probe bytes it absorbed. The persist timer cancels and the
    // blocked data flows immediately.
    let out = deliver_from_b(
        &mut client,
        &SegmentOut {
            seq: 9001,
            ack: 101 + probes as u32,
            flags: Flags::ACK,
            window: u16::MAX,
            mss: None,
            wscale: None,
            sack_permitted: false,
            sack: None,
            payload: PktBuf::empty(),
        },
        now,
    );
    let sent: usize = out.segments.iter().map(|s| s.payload.len()).sum();
    assert!(sent > 0, "reopen releases blocked data");
    let in_flight_cap = client.cwnd();
    assert!(sent <= in_flight_cap, "still congestion-controlled");
    let expected = (queued - probes as usize).min(in_flight_cap);
    assert_eq!(sent, expected, "everything the windows allow goes out");
    assert_eq!(
        client.stats().persist_probes,
        probes,
        "no further probes after reopen"
    );
}

fn collect_data(events: &[Event]) -> Vec<u8> {
    let mut data = Vec::new();
    for e in events {
        if let Event::Data(d) = e {
            data.extend_from_slice(d);
        }
    }
    data
}

#[test]
fn three_way_handshake_establishes_both_sides() {
    handshake();
}

#[test]
fn options_are_negotiated() {
    let (client, server, ..) = handshake();
    assert_eq!(client.effective_mss(), 1460);
    assert_eq!(server.effective_mss(), 1460);
    assert!(client.ws_enabled() && server.ws_enabled(), "window scaling on");
}

#[test]
fn transmit_arms_the_retransmit_timer_only_for_what_it_appended() {
    let (mut client, _server, _, _, now) = handshake();
    assert_eq!(client.next_deadline(), None, "idle once established");
    // An output that already holds a segment from an earlier step, and
    // nothing to send: no timer for segments this call did not emit.
    let mut out = Output::default();
    out.segments.push(client.segment(client.rod.snd_nxt(), Flags::ACK, PktBuf::empty()));
    client.transmit(now, &mut out);
    assert_eq!(out.segments.len(), 1);
    assert_eq!(client.next_deadline(), None, "nothing in flight, nothing to time");
    client.app_buffer(vec![7u8; 10]);
    client.transmit(now, &mut out);
    assert_eq!(out.segments.len(), 2, "appended after what was there");
    assert!(client.next_deadline().is_some(), "the data segment is timed");
}

#[test]
fn bulk_transfer_delivers_in_order() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    let data: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
    c_out.extend(client.app_send(&data[..], now).segments);
    let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert_eq!(collect_data(&ev_s), data);
    assert!(client.stats().rto_retransmits == 0, "clean path, no RTOs");
}

#[test]
fn bidirectional_transfer() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    c_out.extend(client.app_send(&b"request"[..], now).segments);
    s_out.extend(server.app_send(&b"response"[..], now).segments);
    let (ev_c, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert_eq!(collect_data(&ev_s), b"request");
    assert_eq!(collect_data(&ev_c), b"response");
}

#[test]
fn packet_loss_recovered_by_retransmission() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    let data: Vec<u8> = (0..50_000u32).map(|i| (i * 7) as u8).collect();
    c_out.extend(client.app_send(&data[..], now).segments);
    // Drop every 9th a->b segment.
    let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |i, a2b| {
        !(a2b && i % 9 == 0)
    });
    assert_eq!(collect_data(&ev_s), data);
    let st = client.stats();
    assert!(
        st.fast_retransmits + st.rto_retransmits > 0,
        "losses forced retransmissions: {st:?}"
    );
}

#[test]
fn triple_dup_ack_triggers_fast_retransmit_not_rto() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    let data = vec![0xAAu8; 20 * 1460];
    c_out.extend(client.app_send(&data[..], now).segments);
    // Drop exactly the first data segment a->b; plenty of dupacks follow.
    let mut dropped = false;
    let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, a2b| {
        if a2b && !dropped {
            dropped = true;
            return false;
        }
        true
    });
    assert_eq!(collect_data(&ev_s).len(), data.len());
    assert!(client.stats().fast_retransmits >= 1, "fast retransmit used");
}

#[test]
fn graceful_close_reaches_closed_on_both_ends() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    c_out.extend(client.app_close(now).segments);
    let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert!(ev_s.contains(&Event::PeerFin));
    assert_eq!(server.state(), State::CloseWait);
    s_out.extend(server.app_close(now).segments);
    let (ev_c, ev_s2) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert!(ev_s2.contains(&Event::Closed));
    assert!(ev_c.contains(&Event::PeerFin));
    // Client sits in TIME_WAIT until 2MSL expires.
    assert_eq!(client.state(), State::TimeWait);
    now += Dur::secs(3);
    let out = client.poll(now).output;
    assert!(out.events.contains(&Event::Closed));
    assert_eq!(client.state(), State::Closed);
}

#[test]
fn simultaneous_close_passes_through_closing() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    c_out.extend(client.app_close(now).segments);
    s_out.extend(server.app_close(now).segments);
    pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    for conn in [&mut client, &mut server] {
        assert!(
            matches!(conn.state(), State::TimeWait | State::Closed),
            "simultaneous close converges, got {:?}",
            conn.state()
        );
    }
}

#[test]
fn rst_tears_down_immediately() {
    let (mut client, _server, ..) = handshake();
    let mut rst = TcpSegment {
        src_port: 2000,
        dst_port: 1000,
        seq: 0,
        ack: 0,
        flags: Flags {
            rst: true,
            ..Flags::default()
        },
        window: 0,
        mss: None,
        wscale: None,
        sack_permitted: false,
        sack: None,
        payload: PktBuf::empty(),
    };
    // A blind RST with an out-of-window sequence number is dropped.
    let out = client.on_segment(&rst, Time::ZERO + Dur::secs(1));
    assert!(out.events.is_empty());
    assert_eq!(client.state(), State::Established);
    assert_eq!(client.stats().injections_dropped, 1);
    // Landing exactly on rcv_nxt tears the connection down.
    rst.seq = 9001;
    let out = client.on_segment(&rst, Time::ZERO + Dur::secs(1));
    assert!(out.events.contains(&Event::Reset));
    assert_eq!(client.state(), State::Closed);
}

#[test]
fn syn_retries_then_gives_up() {
    let mut now = Time::ZERO;
    let (mut client, out) = Connection::connect(TcpConfig::default(), 1, now);
    let mut syns = out.segments.len();
    assert_eq!(syns, 1);
    let mut resets = 0;
    for _ in 0..2 * SYN_RETRIES {
        let Some(d) = client.next_deadline() else { break };
        now = d;
        let out = client.poll(now).output;
        syns += out.segments.iter().filter(|s| s.flags.syn).count();
        resets += out.events.iter().filter(|e| **e == Event::Reset).count();
    }
    assert_eq!(syns, SYN_RETRIES as usize, "the budget counts every SYN sent");
    assert_eq!(resets, 1, "gave up exactly once");
    assert_eq!(client.state(), State::Closed);
    assert_eq!(now, Time::ZERO + Dur::secs(1 + 2 + 4 + 8 + 16 + 32), "after doubling RTOs");
}

/// A 64 KiB write towards a peer that advertised MSS 0 or 1 leaves in
/// 48-byte segments: at 0 it used to leave in none, at 1 one byte each.
fn assert_sent_at_the_mss_floor(conn: &mut Connection, peer_mss: u16, now: Time) {
    assert_eq!(conn.state(), State::Established, "peer MSS {peer_mss}");
    assert_eq!(conn.effective_mss(), 48, "peer MSS {peer_mss}");
    let sent = conn.app_send(vec![7u8; 64 * 1024], now).segments;
    assert_eq!(
        payload_lens(&sent),
        vec![48; conn.cwnd() / 48],
        "peer MSS {peer_mss}: the initial window in 48-byte segments"
    );
}

#[test]
fn a_syn_ack_with_a_tiny_mss_is_sent_to_at_the_floor() {
    for peer_mss in [0u16, 1] {
        let now = Time::ZERO;
        let (mut client, _syn) = Connection::connect(TcpConfig::default(), 100, now);
        let syn_ack = SegmentOut {
            seq: 9000,
            ack: 101,
            flags: Flags {
                syn: true,
                ..Flags::ACK
            },
            window: u16::MAX,
            mss: Some(peer_mss),
            wscale: None,
            sack_permitted: false,
            sack: None,
            payload: PktBuf::empty(),
        };
        deliver_from_b(&mut client, &syn_ack, now);
        assert_sent_at_the_mss_floor(&mut client, peer_mss, now);
    }
}

#[test]
fn a_syn_with_a_tiny_mss_is_sent_to_at_the_floor() {
    for peer_mss in [0u16, 1] {
        let now = Time::ZERO;
        let mut server = Connection::listen(TcpConfig::default(), 9000);
        let syn = SegmentOut {
            seq: 100,
            ack: 0,
            flags: Flags {
                syn: true,
                ..Flags::default()
            },
            window: u16::MAX,
            mss: Some(peer_mss),
            wscale: None,
            sack_permitted: false,
            sack: None,
            payload: PktBuf::empty(),
        };
        let syn_ack = deliver_from_a(&mut server, &syn, now).segments;
        assert_eq!(syn_ack.len(), 1);
        let ack = SegmentOut {
            seq: 101,
            ack: 9001,
            flags: Flags::ACK,
            window: u16::MAX,
            mss: None,
            wscale: None,
            sack_permitted: false,
            sack: None,
            payload: PktBuf::empty(),
        };
        deliver_from_a(&mut server, &ack, now);
        assert_sent_at_the_mss_floor(&mut server, peer_mss, now);
    }
}

#[test]
fn cwnd_grows_in_slow_start_and_halves_on_loss() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    let before = client.cwnd();
    let data = vec![1u8; 40 * 1460];
    c_out.extend(client.app_send(&data[..], now).segments);
    pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert!(client.cwnd() > before, "slow start grew the window");

    // Now force an RTO and observe multiplicative decrease.
    let data2 = vec![2u8; 5 * 1460];
    let segs = client.app_send(&data2[..], now).segments;
    assert!(!segs.is_empty());
    let deadline = client.next_deadline().expect("rtx armed");
    let out = client.poll(deadline).output;
    assert!(!out.segments.is_empty(), "RTO retransmission");
    assert_eq!(client.cwnd(), client.effective_mss(), "cwnd collapsed to 1 MSS");
}

#[test]
fn window_scaling_disabled_still_interoperates() {
    // A peer without RFC 7323 support: our side must fall back to
    // unscaled windows and still move data.
    let (mut client, mut server, mut c_out, mut s_out, mut now) =
        handshake_with(false);
    assert!(!server.ws_enabled(), "server disabled scaling in response");
    assert!(!client.ws_enabled(), "the SYN+ACK offered no scaling back");
    let data: Vec<u8> = (0..40_000u32).map(|i| i as u8).collect();
    c_out.extend(client.app_send(&data[..], now).segments);
    let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert_eq!(collect_data(&ev_s), data);
}

#[test]
fn duplicate_segments_do_not_duplicate_data() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    let out = client.app_send(&b"exactly-once"[..], now);
    let seg = &out.segments[0];
    let wire = PktBuf::from_vec(build_segment(A, 1000, B, 2000, seg));
    let parsed = TcpSegment::parse(A, B, &wire).unwrap();
    let mut events = Vec::new();
    // Deliver the same segment three times (a duplicating network).
    for _ in 0..3 {
        let o = server.on_segment(&parsed, now);
        events.extend(o.events);
        s_out.extend(o.segments);
    }
    assert_eq!(collect_data(&events), b"exactly-once");
    // Drain the ACKs so both sides settle.
    c_out.clear();
    pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert_eq!(server.stats().bytes_in, 12);
}

#[test]
fn out_of_order_segments_reassemble() {
    let (mut client, mut server, mut _c_out, mut s_out, now) = handshake();
    // Client produces two segments; deliver the second first.
    let out = client.app_send(vec![b'x'; 1460], now);
    let out2 = client.app_send(&[b'y'; 100][..], now);
    let first = &out.segments[0];
    let second = &out2.segments[0];
    let w1 = PktBuf::from_vec(build_segment(A, 1000, B, 2000, first));
    let w2 = PktBuf::from_vec(build_segment(A, 1000, B, 2000, second));
    let p1 = TcpSegment::parse(A, B, &w1).unwrap();
    let p2 = TcpSegment::parse(A, B, &w2).unwrap();

    let o = server.on_segment(&p2, now);
    assert!(
        o.events.iter().all(|e| !matches!(e, Event::Data(_))),
        "out-of-order data is held back"
    );
    assert!(!o.segments.is_empty(), "and a duplicate ACK is emitted");
    let o = server.on_segment(&p1, now);
    let data = collect_data(&o.events);
    assert_eq!(data.len(), 1560, "hole filled: both segments delivered");
    assert!(data[..1460].iter().all(|b| *b == b'x'));
    assert!(data[1460..].iter().all(|b| *b == b'y'));
    drop(s_out.drain(..));
}

// --- sender silly-window avoidance + limited transmit ----------------------

/// Both ends without window scaling, so a hand-written window field is a
/// byte count. Client iss 100, server iss 9000: data starts at seq 101.
fn handshake_unscaled() -> (
    Connection,
    Connection,
    Vec<SegmentOut>,
    Vec<SegmentOut>,
    Time,
) {
    handshake_with(false)
}

/// Delivers one of the client's segments to the server over real
/// serialisation.
fn deliver_from_a(server: &mut Connection, seg: &SegmentOut, now: Time) -> Output {
    let wire = PktBuf::from_vec(build_segment(A, 1000, B, 2000, seg));
    let parsed = TcpSegment::parse(A, B, &wire).expect("valid segment");
    server.on_segment(&parsed, now)
}

/// A bare ACK from the peer: cumulative `ack`, advertising `window` bytes.
fn ack_from_b(client: &mut Connection, ack: u32, window: usize, now: Time) -> Vec<SegmentOut> {
    let seg = SegmentOut {
        seq: 9001,
        ack,
        flags: Flags::ACK,
        window: window as u16,
        mss: None,
        wscale: None,
        sack_permitted: false,
        sack: None,
        payload: PktBuf::empty(),
    };
    deliver_from_b(client, &seg, now).segments
}

fn payload_lens(segs: &[SegmentOut]) -> Vec<usize> {
    segs.iter().map(|s| s.payload.len()).collect()
}

/// Collapses `cwnd` to `segs` full segments the way a timeout followed by
/// a completed recovery would, without disturbing the retransmit stats.
fn shrink_cwnd(client: &mut Connection, segs: usize) {
    client.cc.on_loss(LossEvent::Timeout {
        flight: 2 * segs * MSS,
        mss: MSS,
    });
    client.cc.on_ack(AckSample {
        kind: AckKind::RecoveryExit,
        newly_acked: 0,
        mss: MSS,
    });
    assert_eq!(client.cwnd(), segs * MSS);
}

#[test]
fn window_opening_by_less_than_an_mss_sends_nothing() {
    let (mut client, _server, _c, _s, now) = handshake_unscaled();
    assert!(ack_from_b(&mut client, 101, 4 * MSS, now).is_empty());
    let out = client.app_send(vec![7u8; 10 * MSS], now);
    assert_eq!(
        payload_lens(&out.segments),
        [MSS; 4],
        "the window's worth, full-sized"
    );

    // First segment acked, window one sliver wider: 500 usable bytes,
    // three segments in flight, six more queued — hold.
    let una = 101 + MSS as u32;
    assert!(
        ack_from_b(&mut client, una, 3 * MSS + 500, now).is_empty(),
        "a 500-byte sliver with data in flight and more queued must wait"
    );
    // Second segment acked too: MSS + 500 usable — one full segment, and
    // the 500 left over wait again.
    let una = una + MSS as u32;
    let segs = ack_from_b(&mut client, una, 3 * MSS + 500, now);
    assert_eq!(payload_lens(&segs), [MSS]);
    assert_eq!(
        segs[0].seq,
        101 + 4 * MSS as u32,
        "new data, not a retransmission"
    );
}

#[test]
fn short_writes_and_small_windows_are_never_held_forever() {
    let (mut client, _server, _c, _s, now) = handshake_unscaled();
    // No Nagle: with two segments in flight a 100-byte write that empties
    // the buffer goes at once (the http_churn shape).
    let out = client.app_send(vec![1u8; 2 * MSS], now);
    assert_eq!(payload_lens(&out.segments), [MSS, MSS]);
    let out = client.app_send(vec![2u8; 100], now);
    assert_eq!(payload_lens(&out.segments), [100]);
    assert!(out.segments[0].flags.psh);

    // No deadlock: everything acked, the peer offers 700 bytes, 5000 are
    // queued. Nothing is in flight, so the sliver is all there is to send
    // — and the persist timer is not what sends it.
    let una = 101 + 2 * MSS as u32 + 100;
    assert!(ack_from_b(&mut client, una, 700, now).is_empty());
    let out = client.app_send(vec![3u8; 5000], now);
    assert_eq!(payload_lens(&out.segments), [700]);
    assert_eq!(client.stats().persist_probes, 0);
    // Acked with the same small window: the next 700 follow.
    let segs = ack_from_b(&mut client, una + 700, 700, now);
    assert_eq!(payload_lens(&segs), [700]);
}

#[test]
fn first_two_duplicate_acks_each_release_one_new_segment() {
    let (mut client, _server, _c, _s, now) = handshake_unscaled();
    let cwnd = client.cwnd();
    assert_eq!(cwnd, 10 * MSS);
    let out = client.app_send(vec![9u8; 30 * MSS], now);
    assert_eq!(out.segments.len(), 10, "a full congestion window in flight");
    let window = u16::MAX as usize;

    for dup in 1..=2u32 {
        let segs = ack_from_b(&mut client, 101, window, now);
        assert_eq!(
            payload_lens(&segs),
            [MSS],
            "dup ack {dup} releases one segment"
        );
        assert_eq!(
            segs[0].seq,
            101 + (9 + dup) * MSS as u32,
            "and it is new data"
        );
        assert_eq!(client.cwnd(), cwnd, "cwnd untouched by limited transmit");
        assert!(client.rod.flight() <= cwnd + 2 * MSS);
    }
    assert_eq!(client.stats().fast_retransmits, 0);

    // The third still enters recovery and retransmits the hole.
    let segs = ack_from_b(&mut client, 101, window, now);
    assert_eq!(client.stats().fast_retransmits, 1);
    assert_eq!(segs[0].seq, 101, "fast retransmit of the first segment");

    // `recover` covers the two limited-transmit segments: an ACK for the
    // original ten is only partial (next hole retransmitted) …
    let ten = 101 + 10 * MSS as u32;
    let segs = ack_from_b(&mut client, ten, window, now);
    assert_eq!(segs[0].seq, ten, "partial ack: still in recovery");
    // … and the ACK covering all twelve ends it, deflating to ssthresh.
    ack_from_b(&mut client, ten + 2 * MSS as u32, window, now);
    assert_eq!(
        client.cwnd(),
        6 * MSS,
        "ssthresh = flight / 2 at the third dup"
    );
    assert_eq!(client.stats().rto_retransmits, 0);
}

#[test]
fn small_window_loss_recovers_by_fast_retransmit_not_rto() {
    // RFC 3042's case: a window too small to produce three duplicate ACKs
    // by itself. `in_flight` full segments out, the first lost, more data
    // queued behind cwnd; a real receiver answers whatever arrives.
    for in_flight in [3usize, 4] {
        let (mut client, mut server, _c, _s, now) = handshake_unscaled();
        shrink_cwnd(&mut client, in_flight);
        let data: Vec<u8> = (0..20 * MSS).map(|i| (i % 251) as u8).collect();
        let mut wire = client.app_send(&data[..], now).segments;
        assert_eq!(wire.len(), in_flight);
        wire.remove(0); // lost
        let mut received = Vec::new();
        for _ in 0..200 {
            if wire.is_empty() {
                break;
            }
            let mut acks = Vec::new();
            for seg in wire.drain(..) {
                let out = deliver_from_a(&mut server, &seg, now);
                received.extend(collect_data(&out.events));
                acks.extend(out.segments);
            }
            for ack in acks {
                wire.extend(deliver_from_b(&mut client, &ack, now).segments);
            }
        }
        assert_eq!(received, data, "{in_flight} in flight: stream delivered");
        let st = client.stats();
        assert_eq!(st.fast_retransmits, 1, "{in_flight} in flight: {st:?}");
        assert_eq!(st.rto_retransmits, 0, "{in_flight} in flight: {st:?}");
    }
}

#[test]
fn fin_that_overtakes_a_hole_is_remembered() {
    let (mut client, mut server, _c, _s, now) = handshake();
    let mut segs = client.app_send(vec![5u8; 2 * MSS], now).segments;
    segs.extend(client.app_close(now).segments);
    assert_eq!(segs.len(), 3, "two data segments and the FIN");
    // The first data segment is lost; the second and the FIN arrive.
    assert!(deliver_from_a(&mut server, &segs[1], now).events.is_empty());
    assert!(deliver_from_a(&mut server, &segs[2], now).events.is_empty());
    assert_eq!(server.state(), State::Established, "FIN not yet in order");
    // The retransmission fills the hole: data, then the early FIN.
    let out = deliver_from_a(&mut server, &segs[0], now);
    assert_eq!(collect_data(&out.events).len(), 2 * MSS);
    assert_eq!(out.events.last(), Some(&Event::PeerFin));
    assert_eq!(server.state(), State::CloseWait);
    let fin_acked = segs[2].seq.wrapping_add(1);
    assert_eq!(
        out.segments.last().unwrap().ack,
        fin_acked,
        "the FIN is acked, no RTO needed"
    );
}

/// What [`run_schedule`] saw: the sender's data segments `(seq, len)` in
/// emission order, and the bytes written and delivered.
#[derive(Debug, PartialEq)]
struct ScheduleRun {
    trace: Vec<(u32, usize)>,
    written: Vec<u8>,
    delivered: Vec<u8>,
}

/// Drives a sender against a real receiver with one schedule byte deciding
/// each event: when the application writes (and how much), which segments
/// and ACKs the network loses, and what window each surviving ACK claims
/// (zero, one byte, either side of the MSS, or the truth). After the
/// schedule's disruption budget the network turns faithful so every run
/// ends. Asserts the silly-window invariant on every data segment as it
/// is emitted.
fn run_schedule(sched: &[u8]) -> ScheduleRun {
    const DISRUPTIONS: usize = 600;
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake_unscaled();
    let mut cursor = 0usize;
    let draw = |cursor: &mut usize| {
        let b = if sched.is_empty() {
            0
        } else {
            sched[*cursor % sched.len()]
        };
        *cursor += 1;
        b
    };
    let mut writes: Vec<Vec<u8>> = (0..5)
        .map(|w| {
            let len = 1 + (draw(&mut cursor) as usize * 131 + w * 977) % 12_000;
            (0..len).map(|i| ((i * 7 + w) % 251) as u8).collect()
        })
        .collect();
    writes.reverse();
    let mut run = ScheduleRun {
        trace: Vec::new(),
        written: Vec::new(),
        delivered: Vec::new(),
    };
    // Highest sequence number any data segment has covered so far.
    let mut high = 101u32;
    let mut audit = |client: &Connection,
                     segs: &[SegmentOut],
                     written: usize,
                     probe: bool,
                     run: &mut ScheduleRun| {
        for seg in segs.iter().filter(|s| !s.payload.is_empty()) {
            let len = seg.payload.len();
            let end = seg.seq.wrapping_add(len as u32);
            let full = len == MSS;
            let empties = end == 101u32.wrapping_add(written as u32);
            let idle_pipe = seg.seq == client.rod.snd_una();
            let retransmission = seq::lt(seg.seq, high);
            assert!(
                full || empties || idle_pipe || retransmission || (probe && len == 1),
                "silly segment seq={} len={len} (una={}, high={high})",
                seg.seq,
                client.rod.snd_una(),
            );
            if seq::gt(end, high) {
                high = end;
            }
            run.trace.push((seg.seq, len));
        }
    };
    for _ in 0..20_000 {
        now += Dur::micros(100);
        let faithful = cursor > DISRUPTIONS;
        let mut moved = false;
        if !writes.is_empty() && (faithful || draw(&mut cursor) % 4 == 0) {
            let chunk = writes.pop().expect("checked");
            run.written.extend_from_slice(&chunk);
            let out = client.app_send(chunk, now);
            audit(&client, &out.segments, run.written.len(), false, &mut run);
            c_out.extend(out.segments);
            moved = true;
        }
        for seg in std::mem::take(&mut c_out) {
            moved = true;
            if !faithful && draw(&mut cursor) % 8 == 0 {
                continue; // lost
            }
            let out = deliver_from_a(&mut server, &seg, now);
            run.delivered.extend(collect_data(&out.events));
            s_out.extend(out.segments);
        }
        for mut seg in std::mem::take(&mut s_out) {
            moved = true;
            if !faithful {
                let b = draw(&mut cursor);
                if b % 8 == 1 {
                    continue; // lost
                }
                seg.window = match b >> 4 {
                    0 => 0,
                    1 => 1,
                    2 => MSS as u16 - 1,
                    3 => MSS as u16,
                    4 => MSS as u16 + 1,
                    5 => 3 * MSS as u16 + 500,
                    _ => seg.window,
                };
            }
            let out = deliver_from_b(&mut client, &seg, now);
            audit(&client, &out.segments, run.written.len(), false, &mut run);
            c_out.extend(out.segments);
        }
        if moved {
            continue;
        }
        if writes.is_empty() && client.unacked_bytes() == 0 {
            return run;
        }
        // Quiet: jump to the next timer on either side.
        let next = [client.next_deadline(), server.next_deadline()]
            .into_iter()
            .flatten()
            .min();
        if let Some(t) = next {
            now = now.max(t);
            let probes = client.stats().persist_probes;
            let out = client.poll(now).output;
            let probe = client.stats().persist_probes > probes;
            audit(&client, &out.segments, run.written.len(), probe, &mut run);
            c_out.extend(out.segments);
            s_out.extend(server.poll(now).output.segments);
        }
    }
    panic!(
        "schedule did not finish: {} bytes unacked",
        client.unacked_bytes()
    );
}

mirage_testkit::property! {
    /// Sequence-space comparisons behave like signed distance.
    fn prop_seq_order_is_antisymmetric(a in any::<u32>(), delta in 1u32..0x7FFF_FFFF) {
        let b = a.wrapping_add(delta);
        assert!(seq::lt(a, b));
        assert!(seq::gt(b, a));
        assert!(!seq::lt(b, a));
        assert!(seq::le(a, a) && seq::ge(a, a));
    }

    /// Under random loss in both directions, the stream still arrives
    /// complete and in order (retransmission is sound).
    fn prop_lossy_link_preserves_stream(
        drop_mask in any::<u64>(),
        len in 1usize..30_000,
    ) {
        let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        c_out.extend(client.app_send(&data[..], now).segments);
        let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |i, _| {
            // Drop per the mask bits, but never starve forever.
            (drop_mask >> (i % 64)) & 1 == 0 || i > 200
        });
        assert_eq!(collect_data(&ev_s), data);
    }

    /// Out-of-order reassembly under `PktBuf` views: any shuffled set of
    /// segments tiling the stream — plus redundant overlapping segments —
    /// reassembles to exactly the original bytes, delivered once each.
    fn prop_ooo_reassembly_under_views(
        len in 200usize..6000,
        cuts in collection::vec(any::<usize>(), 1..12),
        extras in collection::vec((any::<usize>(), any::<usize>()), 0..8),
        shuffle in collection::vec(any::<usize>(), 4..32),
    ) {
        // handshake(): client iss 100, server iss 9000 — so the first
        // data byte towards the server is seq 101, acking 9001.
        let (_client, mut server, _c_out, _s_out, now) = handshake();
        let data: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
        // Tile [0, len) at pseudo-random cut points.
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
        points.push(0);
        points.push(len);
        points.sort_unstable();
        points.dedup();
        let mut ranges: Vec<(usize, usize)> =
            points.windows(2).map(|w| (w[0], w[1])).collect();
        // Redundant overlapping ranges on top of the tiling.
        for (a, b) in extras {
            let s = a % len;
            ranges.push((s, (s + 1 + b % 1460).min(len)));
        }
        // Split every range at the MSS, then shuffle deterministically.
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
        let mut events = Vec::new();
        for (s, e) in segs {
            let out = SegmentOut {
                seq: 101u32.wrapping_add(s as u32),
                ack: 9001,
                flags: Flags::ACK,
                window: 0xFFFF,
                mss: None,
                wscale: None,
                sack_permitted: false,
                sack: None,
                payload: PktBuf::from_vec(data[s..e].to_vec()),
            };
            let wire = PktBuf::from_vec(build_segment(A, 1000, B, 2000, &out));
            let parsed = TcpSegment::parse(A, B, &wire).unwrap();
            events.extend(server.on_segment(&parsed, now).events);
        }
        assert_eq!(collect_data(&events), data);
    }

    /// Over seeded write/loss/window schedules every data segment is full,
    /// or empties the buffer, or leaves into an empty pipe, or is a
    /// retransmission or persist probe (asserted inside `run_schedule`);
    /// the stream arrives exactly once; and the same schedule replays the
    /// same segment trace.
    fn prop_no_silly_segments_under_seeded_schedules(seed in any::<u64>()) {
        // Exemplars: a clean network, periodic loss, and a window that
        // keeps closing and reopening around the MSS.
        let exemplars = [
            vec![0xF7u8; 48],
            (0..64u8).map(|i| if i % 5 == 0 { 0xF0 } else { 0xF7 }).collect(),
            (0..64u8).map(|i| (i % 7) << 4 | 7).collect(),
        ];
        let sched = mirage_testkit::corpus::CorpusGen::for_stream(seed, "sws-schedule")
            .case(&exemplars);
        let run = run_schedule(&sched);
        assert_eq!(run.delivered, run.written, "stream delivered exactly once");
        assert_eq!(run, run_schedule(&sched), "same schedule, same trace");
    }
}

// --- D-SACK: telling reordering from loss -----------------------------------

/// What one [`exchange`] saw.
struct Exchange {
    /// Bytes the server delivered.
    delivered: Vec<u8>,
    /// Every segment the client emitted, in order.
    sent: Vec<SegmentOut>,
    /// Every segment the server answered with, in order.
    answers: Vec<SegmentOut>,
}

/// Carries `wire` (the client's segments) to the server one at a time and
/// every answer straight back, queueing what the client emits in reply,
/// until nothing is left. The client segment at `held` (an index into
/// `wire`) is delivered after the `depth` segments behind it (reordered),
/// or never if `lose`.
fn exchange(
    client: &mut Connection,
    server: &mut Connection,
    wire: Vec<SegmentOut>,
    held: usize,
    depth: usize,
    lose: bool,
    now: Time,
) -> Exchange {
    let mut queue = std::collections::VecDeque::from(wire);
    let held_seg = queue.remove(held).expect("held segment in range");
    let mut x = Exchange {
        delivered: Vec::new(),
        sent: Vec::new(),
        answers: Vec::new(),
    };
    let mut passed = 0;
    let mut held_seg = Some(held_seg);
    while let Some(seg) = queue.pop_front() {
        let mut carry = vec![seg];
        passed += 1;
        if passed == depth {
            if let Some(h) = held_seg.take() {
                if !lose {
                    carry.push(h);
                }
            }
        }
        for seg in carry {
            let out = deliver_from_a(server, &seg, now);
            x.delivered.extend(collect_data(&out.events));
            for ans in out.segments {
                let back = deliver_from_b(client, &ans, now).segments;
                x.sent.extend(back.iter().cloned());
                queue.extend(back);
                x.answers.push(ans);
            }
        }
    }
    x
}

/// A stream of `n` bytes to tell delivered bytes apart.
fn stream(n: usize, salt: u8) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8 ^ salt).collect()
}

#[test]
fn a_reordered_segment_is_undone_by_dsack_and_raises_the_threshold() {
    let (mut client, mut server, _c, _s, now) = handshake_unscaled();
    let pre = (client.cwnd(), client.cc.ssthresh());
    let data = stream(30 * MSS, 0);
    let wire = client.app_send(&data[..], now).segments;
    assert_eq!(wire.len(), 10);
    // The first segment arrives behind the next three: three duplicate
    // ACKs, a fast retransmit, then the original after all.
    let x = exchange(&mut client, &mut server, wire, 0, 3, false, now);
    assert_eq!(x.delivered, data, "stream delivered exactly once");
    assert_eq!(client.stats().fast_retransmits, 1);
    let dsacks: Vec<_> = x.answers.iter().filter_map(|a| a.sack).collect();
    assert!(!dsacks.is_empty(), "the duplicate drew a D-SACK");
    assert!(dsacks.contains(&(101, 101 + MSS as u32)), "{dsacks:?}");
    assert!(client.cwnd() >= pre.0, "cwnd back to its pre-loss value");
    assert_eq!(client.cc.ssthresh(), pre.1, "and ssthresh");

    // The same reordering again: three duplicates no longer mean loss.
    let data = stream(12 * MSS, 0x5A);
    let wire = client.app_send(&data[..], now).segments;
    let first = wire[0].seq;
    let x = exchange(&mut client, &mut server, wire, 0, 3, false, now);
    assert_eq!(x.delivered, data);
    assert_eq!(client.stats().fast_retransmits, 1, "no second fast retransmit");
    assert!(
        x.sent.iter().all(|s| seq::gt(s.seq, first) || s.payload.is_empty()),
        "nothing was sent twice"
    );
    assert_eq!(client.stats().rto_retransmits, 0);
}

#[test]
fn a_lost_segment_draws_no_dsack_and_nothing_is_undone() {
    let (mut client, mut server, _c, _s, now) = handshake_unscaled();
    let pre = client.cwnd();
    let data = stream(30 * MSS, 0);
    let wire = client.app_send(&data[..], now).segments;
    let x = exchange(&mut client, &mut server, wire, 0, 3, true, now);
    assert_eq!(x.delivered, data, "the fast retransmit filled the hole");
    assert_eq!(client.stats().fast_retransmits, 1);
    assert!(x.answers.iter().all(|a| a.sack.is_none()), "no duplicate, no D-SACK");
    assert!(client.cwnd() < pre, "the window stays cut");
    assert!(client.cc.ssthresh() < usize::MAX / 2);

    // The threshold is still three: the next loss of the same depth is
    // fast-retransmitted again.
    let data = stream(12 * MSS, 0x5A);
    let wire = client.app_send(&data[..], now).segments;
    let x = exchange(&mut client, &mut server, wire, 0, 3, true, now);
    assert_eq!(x.delivered, data);
    assert_eq!(client.stats().fast_retransmits, 2);
}

/// A bare ACK from the peer carrying one SACK block.
fn sack_from_b(client: &mut Connection, ack: u32, block: (u32, u32), now: Time) -> Vec<SegmentOut> {
    let seg = SegmentOut {
        seq: 9001,
        ack,
        flags: Flags::ACK,
        window: u16::MAX,
        mss: None,
        wscale: None,
        sack_permitted: false,
        sack: Some(block),
        payload: PktBuf::empty(),
    };
    deliver_from_b(client, &seg, now).segments
}

#[test]
fn a_dsack_outside_the_episode_changes_nothing() {
    let (mut client, _server, _c, _s, now) = handshake_unscaled();
    let mss = MSS as u32;
    client.app_send(vec![1u8; 30 * MSS], now);
    // Two segments acked, then three duplicates: the episode starts at
    // the third segment.
    let una = 101 + 2 * mss;
    ack_from_b(&mut client, una, u16::MAX as usize, now);
    let pre = (client.cwnd(), client.cc.ssthresh());
    for _ in 0..3 {
        ack_from_b(&mut client, una, u16::MAX as usize, now);
    }
    assert_eq!(client.stats().fast_retransmits, 1);
    let cut = client.cwnd();
    assert!(cut + MSS < pre.0);

    // Below the episode's first snd_una: a duplicate of an earlier
    // segment, not of this episode's retransmission.
    assert!(sack_from_b(&mut client, una, (101, 101 + mss), now).is_empty());
    assert_eq!(client.cwnd(), cut, "not undone, and not a duplicate ACK");
    // Above the cumulative ACK: an ordinary SACK block, not a D-SACK. It
    // counts as a duplicate (window inflation), but undoes nothing.
    sack_from_b(&mut client, una, (una, una + mss), now);
    assert_eq!(client.cwnd(), cut + MSS, "inflated by one duplicate only");
    // The episode's own retransmission, reported at or below the ACK.
    sack_from_b(&mut client, una + mss, (una, una + mss), now);
    assert!(client.cwnd() >= pre.0, "undone by the one D-SACK that matches");
    assert_eq!(client.cc.ssthresh(), pre.1);
}

#[test]
fn an_ack_carrying_a_dsack_is_not_a_duplicate_ack() {
    let (mut client, _server, _c, _s, now) = handshake_unscaled();
    let out = client.app_send(vec![2u8; 30 * MSS], now);
    assert_eq!(out.segments.len(), 10);
    for _ in 0..5 {
        let segs = sack_from_b(&mut client, 101, (50, 101), now);
        assert!(segs.is_empty(), "no limited transmit, no fast retransmit");
    }
    assert_eq!(client.stats().fast_retransmits, 0);
    assert_eq!(client.cwnd(), 10 * MSS);
    // The same ACKs without the block are duplicates.
    ack_from_b(&mut client, 101, u16::MAX as usize, now);
    ack_from_b(&mut client, 101, u16::MAX as usize, now);
    let segs = ack_from_b(&mut client, 101, u16::MAX as usize, now);
    assert_eq!(segs[0].seq, 101);
    assert_eq!(client.stats().fast_retransmits, 1);
}

#[test]
fn an_rto_drops_the_undo_record_and_resets_the_threshold() {
    let (mut client, mut server, _c, _s, mut now) = handshake_unscaled();
    let mss = MSS as u32;
    // One spurious episode raises the threshold to four.
    let wire = client.app_send(stream(30 * MSS, 0), now).segments;
    exchange(&mut client, &mut server, wire, 0, 3, false, now);
    assert_eq!(client.stats().fast_retransmits, 1);
    let una = client.rod.snd_una();

    // Four duplicates now enter recovery; then the timer fires.
    client.app_send(vec![3u8; 30 * MSS], now);
    for _ in 0..3 {
        ack_from_b(&mut client, una, u16::MAX as usize, now);
    }
    assert_eq!(client.stats().fast_retransmits, 1, "three are below the threshold");
    ack_from_b(&mut client, una, u16::MAX as usize, now);
    assert_eq!(client.stats().fast_retransmits, 2);
    now = client.next_deadline().expect("retransmit timer armed");
    client.poll(now);
    assert_eq!(client.stats().rto_retransmits, 1);
    assert_eq!(client.cwnd(), MSS);

    // The fast retransmit reported as a duplicate no longer undoes
    // anything: the record went with the timeout.
    sack_from_b(&mut client, una + mss, (una, una + mss), now);
    assert!(client.cwnd() <= 2 * MSS, "no undo after an RTO: {}", client.cwnd());

    // Finish the timeout's recovery, then three duplicates are a loss
    // again.
    let end = client.rod.snd_nxt();
    ack_from_b(&mut client, end, u16::MAX as usize, now);
    client.app_send(vec![4u8; 30 * MSS], now);
    for _ in 0..3 {
        ack_from_b(&mut client, end, u16::MAX as usize, now);
    }
    assert_eq!(client.stats().fast_retransmits, 3, "threshold back at three");
}

#[test]
fn a_peer_without_sack_permitted_never_sees_a_sack_option() {
    let (mut client, mut server, c_out, s_out, now) = handshake_offering(false, false);
    assert!(c_out.is_empty() && s_out.is_empty());
    assert!(!server.cm.sack_ok() && !client.cm.sack_ok());
    // The server's SYN-ACK to such a SYN offers no SACK.
    let mut listener = Connection::listen(TcpConfig::default(), 7);
    let (_, syn) = Connection::connect(TcpConfig::default(), 100, now);
    let mut syn = syn.segments[0].clone();
    assert!(syn.sack_permitted, "a SYN offers SACK");
    syn.sack_permitted = false;
    let synack = deliver_from_a(&mut listener, &syn, now).segments;
    assert!(synack[0].flags.syn && !synack[0].sack_permitted);

    // Reordered and duplicated data draws plain ACKs only.
    let data = stream(30 * MSS, 0);
    let wire = client.app_send(&data[..], now).segments;
    let dup = wire[1].clone();
    let x = exchange(&mut client, &mut server, wire, 0, 3, false, now);
    assert_eq!(x.delivered, data);
    let again = deliver_from_a(&mut server, &dup, now).segments;
    assert!(x.answers.iter().chain(&again).all(|a| a.sack.is_none()));
}
