//! Allocation budgets for the TCP state machine's steady state. The
//! numbers are what the code does today, not targets: a change that adds
//! an allocation to one of these paths fails here, in tier-1.

use std::net::Ipv4Addr;

use mirage_hypervisor::{Dur, Time};
use mirage_net::tcp::{
    build_segment, Connection, Event, Output, SegmentOut, TcpConfig, TcpSegment,
};
use mirage_net::PktBuf;
use mirage_testkit::alloc::{count, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn carry(src: Ipv4Addr, dst: Ipv4Addr, seg: &SegmentOut) -> TcpSegment {
    let wire = PktBuf::from_vec(build_segment(src, 1, dst, 2, seg));
    TcpSegment::parse(src, dst, &wire).expect("well-formed segment")
}

/// The one segment `out` holds, taken off it.
fn only(out: &mut Output) -> SegmentOut {
    assert_eq!(out.segments.len(), 1, "{:?}", out.segments);
    out.segments.pop().expect("one segment")
}

#[test]
fn a_steady_in_order_segment_allocates_nothing() {
    let now = Time::ZERO;
    let (mut client, syn) = Connection::connect(TcpConfig::default(), 100, now);
    let mut server = Connection::listen(TcpConfig::default(), 900);
    let synack = server
        .on_segment(&carry(A, B, &syn.segments[0]), now)
        .segments;
    let ack = client.on_segment(&carry(B, A, &synack[0]), now).segments;
    server.on_segment(&carry(A, B, &ack[0]), now);
    let mss = client.effective_mss();

    // One output per role, drained after every step and handed back, as
    // the stack's connection table does.
    let (mut sent, mut received, mut acked) =
        (Output::default(), Output::default(), Output::default());
    for round in 0..8u64 {
        let now = now + Dur::micros(round * 100);
        client.app_buffer(PktBuf::from_vec(vec![round as u8; mss]));
        let (_, in_transmit) = count(|| client.transmit(now, &mut sent));
        let data = carry(A, B, &only(&mut sent));
        assert_eq!(data.payload.len(), mss);

        let (_, in_receiver) = count(|| server.receive(&data, now, &mut received));
        assert!(matches!(received.events.pop(), Some(Event::Data(d)) if d.len() == mss));
        let ack = carry(B, A, &only(&mut received));

        let (_, on_ack) = count(|| client.receive(&ack, now, &mut acked));
        assert!(acked.segments.is_empty() && acked.events.is_empty());
        assert_eq!(client.unacked_bytes(), 0);

        // The first round sizes the send queue and the outputs.
        if round > 0 {
            assert_eq!(
                (in_transmit, in_receiver, on_ack),
                (0, 0, 0),
                "round {round}"
            );
        }
    }
}
