//! Component microbenchmarks: real wall-clock performance of the hot
//! paths every appliance shares — I/O page views, shared rings, TCP
//! segment processing, OpenFlow parsing, B-tree mutation. These are the
//! "micro-benchmarks to establish baseline performance of key components"
//! of §4.1, measured on the actual Rust implementations.

use mirage_cstruct::{PagePool, PktBuf};
use mirage_hypervisor::Time;
use mirage_net::tcp::{build_segment, Connection, TcpConfig, TcpSegment};
use mirage_openflow::{OfMessage, NO_BUFFER};
use mirage_ring::desc;
use mirage_storage::{MemLog, Tree};
use std::net::Ipv4Addr;
use mirage_testkit::bench::Criterion;
use std::future::Future;

fn bench_pages(c: &mut Criterion) {
    let pool = PagePool::new(64);
    c.bench_function("micro/io_page_alloc_freeze_split_recycle", |b| {
        b.iter(|| {
            let mut page = pool.alloc().expect("pool sized for the loop");
            page.write_at(0, b"header|payload");
            page.truncate(14);
            let buf = page.freeze();
            let (hdr, payload) = buf.split_at(7);
            mirage_testkit::bench::black_box((hdr.as_slice(), payload.as_slice()));
        })
    });
}

fn bench_ring(c: &mut Criterion) {
    c.bench_function("micro/ring_request_response_round_trip", |b| {
        let (mut front, mut back) = desc::pair();
        b.iter(|| {
            front.push_request(b"descriptor").unwrap();
            let req = back.take_request().unwrap();
            back.push_response(&req).unwrap();
            mirage_testkit::bench::black_box(front.take_response().unwrap());
        })
    });
}

fn bench_tcp(c: &mut Criterion) {
    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    // Established pair exchanging one data segment + ack per iteration.
    let now = Time::ZERO;
    let (mut client, out) = Connection::connect(TcpConfig::default(), 100, now);
    let mut server = Connection::listen(TcpConfig::default(), 900);
    // Handshake.
    let syn = build_segment(A, 1, B, 2, &out.segments[0]);
    let synack = server
        .on_segment(&TcpSegment::parse(A, B, &PktBuf::from_vec(syn.clone())).unwrap(), now)
        .segments
        .remove(0);
    let synack_wire = build_segment(B, 2, A, 1, &synack);
    let ack = client
        .on_segment(&TcpSegment::parse(B, A, &PktBuf::from_vec(synack_wire.clone())).unwrap(), now)
        .segments
        .remove(0);
    let ack_wire = build_segment(A, 1, B, 2, &ack);
    server.on_segment(&TcpSegment::parse(A, B, &PktBuf::from_vec(ack_wire.clone())).unwrap(), now);

    let payload = vec![0xABu8; 1460];
    c.bench_function("micro/tcp_segment_send_receive_ack", |b| {
        b.iter(|| {
            let out = client.app_send(&payload[..], now);
            for seg in &out.segments {
                let wire = build_segment(A, 1, B, 2, seg);
                let parsed = TcpSegment::parse(A, B, &PktBuf::from_vec(wire)).unwrap();
                let reply = server.on_segment(&parsed, now);
                for r in &reply.segments {
                    let rwire = build_segment(B, 2, A, 1, r);
                    let rparsed = TcpSegment::parse(B, A, &PktBuf::from_vec(rwire)).unwrap();
                    mirage_testkit::bench::black_box(client.on_segment(&rparsed, now));
                }
            }
        })
    });
}

fn bench_openflow(c: &mut Criterion) {
    let pi = OfMessage::PacketIn {
        xid: 9,
        buffer_id: NO_BUFFER,
        in_port: 3,
        data: vec![0xAA; 64],
    }
    .encode();
    c.bench_function("micro/openflow_packet_in_parse", |b| {
        b.iter(|| mirage_testkit::bench::black_box(OfMessage::parse(&pi).unwrap()))
    });
}

fn bench_btree(c: &mut Criterion) {
    c.bench_function("micro/btree_set_100_keys", |b| {
        b.iter(|| {
            // Sync-drive the async tree with a noop waker: MemLog futures
            // are always immediately ready.
            let tree = Tree::new(MemLog::new());
            let waker = std::task::Waker::noop();
            let mut cx = std::task::Context::from_waker(waker);
            for i in 0..100u32 {
                let key = i.to_le_bytes();
                let mut fut = Box::pin(tree.set(&key, b"value"));
                match fut.as_mut().poll(&mut cx) {
                    std::task::Poll::Ready(r) => r.unwrap(),
                    std::task::Poll::Pending => unreachable!("MemLog is immediate"),
                }
            }
            mirage_testkit::bench::black_box(&tree);
        })
    });
}

fn main() {
    let mut c = mirage_bench::criterion();
    bench_pages(&mut c);
    bench_ring(&mut c);
    bench_tcp(&mut c);
    bench_openflow(&mut c);
    bench_btree(&mut c);
    c.final_summary();
}
