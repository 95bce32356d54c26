//! The component pass: median host nanoseconds per call into each layer's
//! public sans-io functions, on inputs shaped like the workloads' ops.
//! Built out from `crates/bench/benches/micro_components.rs`; everything
//! here is wall clock.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use mirage::cstruct::{PagePool, PktBuf};
use mirage::devices::rss;
use mirage::devices::virtio::virtqueue::{self, ChainBuf};
use mirage::dns::{DnsName, DnsServer, Message, RType, ServerConfig, Zone};
use mirage::http::{Request, RequestParser, Response};
use mirage::hypervisor::event::EventSubsystem;
use mirage::hypervisor::grant::{GrantTable, SharedPage};
use mirage::hypervisor::{DomainId, Hypervisor, Time};
use mirage::net::checksum;
use mirage::net::tcp::demux::{ConnTable, FlowKeyed};
use mirage::net::tcp::{build_segment, Connection, SegmentOut, TcpConfig, TcpSegment};
use mirage::ring::desc;
use mirage::runtime::UnikernelGuest;
use mirage::storage::{MemLog, Tree};
use mirage_testkit::wheel::TimerWheel;

use crate::alloc;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Median ns per call of `routine`, over batches sized to ≈1 ms each.
fn ns_per_call(budget: Duration, mut routine: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            routine();
        }
        if t.elapsed() >= Duration::from_micros(500) || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || (started.elapsed() < budget && samples.len() < 200) {
        let t = Instant::now();
        for _ in 0..batch {
            routine();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Polls a future whose I/O is always immediately ready (`MemLog`).
fn ready<T>(fut: impl std::future::Future<Output = T>) -> T {
    let mut cx = Context::from_waker(Waker::noop());
    let mut fut = std::pin::pin!(fut);
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => unreachable!("in-memory I/O never blocks"),
    }
}

fn parse(src: Ipv4Addr, dst: Ipv4Addr, wire: Vec<u8>) -> TcpSegment {
    TcpSegment::parse(src, dst, &PktBuf::from_vec(wire)).expect("well-formed segment")
}

/// An established client/server pair after the three-way handshake.
fn established() -> (Connection, Connection) {
    let now = Time::ZERO;
    let (mut client, out) = Connection::connect(TcpConfig::default(), 100, now);
    let mut server = Connection::listen(TcpConfig::default(), 900);
    let syn = build_segment(A, 1, B, 2, &out.segments[0]);
    let synack = server.on_segment(&parse(A, B, syn), now).segments.remove(0);
    let ack = client
        .on_segment(&parse(B, A, build_segment(B, 2, A, 1, &synack)), now)
        .segments
        .remove(0);
    server.on_segment(&parse(A, B, build_segment(A, 1, B, 2, &ack)), now);
    (client, server)
}

/// Carries every segment of `out` from `from` to `to` and the replies
/// back, until both sides fall silent.
fn exchange(
    from: &mut Connection,
    to: &mut Connection,
    out: Vec<SegmentOut>,
    a: Ipv4Addr,
    b: Ipv4Addr,
) {
    let now = Time::ZERO;
    let mut forward = out;
    let (mut src, mut dst, mut sa, mut sb) = (from, to, a, b);
    while !forward.is_empty() {
        let mut back = Vec::new();
        for seg in &forward {
            let wire = build_segment(sa, 1, sb, 2, seg);
            back.extend(dst.on_segment(&parse(sa, sb, wire), now).segments);
        }
        forward = back;
        std::mem::swap(&mut src, &mut dst);
        std::mem::swap(&mut sa, &mut sb);
    }
}

/// One data segment of `len` bytes sent, received and acknowledged.
fn seg_cycle(client: &mut Connection, server: &mut Connection, payload: &[u8]) {
    let out = client.app_send(payload, Time::ZERO);
    exchange(client, server, out.segments, A, B);
}

struct Entry((std::net::Ipv4Addr, u16, u16));

impl FlowKeyed for Entry {
    fn quad(&self) -> (Ipv4Addr, u16, u16) {
        self.0
    }
}

/// Host ns per spawned-and-finished task, through a real guest step.
fn task_cycle_ns() -> f64 {
    const TASKS: usize = 20_000;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut hv = Hypervisor::new();
            let guest = UnikernelGuest::new(|_env, rt| {
                let rt2 = rt.clone();
                rt.spawn(async move {
                    let tasks: Vec<_> = (0..TASKS)
                        .map(|i| {
                            let rt3 = rt2.clone();
                            rt2.spawn(async move {
                                rt3.yield_now().await;
                                i
                            })
                        })
                        .collect();
                    let mut sum = 0usize;
                    for t in tasks {
                        sum += t.await;
                    }
                    sum as i64
                })
            });
            hv.create_domain("tasks", 16, Box::new(guest));
            let t = Instant::now();
            hv.run();
            t.elapsed().as_nanos() as f64 / TASKS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Timer<'a> {
    budget: Duration,
    out: &'a mut Vec<(&'static str, f64)>,
}

impl Timer<'_> {
    fn call(&mut self, name: &'static str, routine: impl FnMut()) {
        self.out.push((name, ns_per_call(self.budget, routine)));
    }
}

/// Runs the whole pass; `budget` is the time spent per metric.
pub fn run(budget: Duration) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut time = Timer {
        budget,
        out: &mut out,
    };

    let pool = PagePool::new(64);
    time.call("cstruct.page_cycle_ns", || {
        let mut page = pool.alloc().expect("pool sized for the loop");
        page.write_at(0, b"header|payload");
        page.truncate(14);
        let buf = page.freeze();
        let (hdr, payload) = buf.split_at(7);
        black_box((hdr.as_slice(), payload.as_slice()));
    });

    let (mut front, mut back) = desc::pair();
    time.call("ring.desc_roundtrip_ns", || {
        front.push_request(b"descriptor").expect("slot free");
        let req = back.take_request().expect("request queued");
        back.push_response(&req).expect("slot free");
        black_box(front.take_response().expect("response queued"));
    });

    let (mut driver, mut device) = virtqueue::pair();
    let chain = [ChainBuf {
        addr: virtqueue::buf_addr(1, 0),
        len: 1514,
        device_writes: false,
    }];
    time.call("devices.virtq.roundtrip_ns", || {
        driver.add_chain(&chain).expect("descriptor free");
        let popped = device.pop_avail().expect("chain published");
        device.push_used(popped.head, 0);
        black_box(driver.take_used().expect("chain returned"));
    });

    let mut port = 1000u16;
    time.call("devices.rss.toeplitz_ns", || {
        port = port.wrapping_add(1);
        black_box(rss::toeplitz([10, 0, 0, 1], port, 80));
    });

    let (d0, d1) = (DomainId(0), DomainId(1));
    let mut events = EventSubsystem::new();
    let unbound = events.alloc_unbound(d0, d1);
    let bound = events.bind_interdomain(d1, d0, unbound).expect("bind");
    time.call("hypervisor.evtchn_notify_ns", || {
        let (peer, peer_port) = events.notify(d1, bound).expect("notify");
        black_box(events.consume_pending(peer, peer_port).expect("consume"));
    });

    let page = SharedPage::new();
    time.call("hypervisor.grant_cycle_ns", || {
        // A fresh table per batch would hide nothing: `grant` appends.
        let mut grants = GrantTable::new();
        let gref = grants.grant(d1, d0, page.clone(), true);
        black_box(grants.map(d0, gref, true).expect("map"));
        grants.unmap(d0, gref).expect("unmap");
        grants.revoke(d1, gref).expect("revoke");
    });

    time.out.push(("runtime.task_cycle_ns", task_cycle_ns()));

    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut deadline = 1_000u64;
    time.call("testkit.wheel.arm_cancel_ns", || {
        deadline += 200_000_000; // an RTO out, as the stack arms them
        let id = wheel.insert(deadline, 7);
        black_box(wheel.cancel(id));
    });

    let mss_payload = vec![0xABu8; 1460];
    time.call("net.checksum_ns_1460", || {
        black_box(checksum::checksum(black_box(&mss_payload)));
    });

    let (mut client, mut server) = established();
    let data_seg = client
        .app_send(&mss_payload[..], Time::ZERO)
        .segments
        .remove(0);
    let data_wire = PktBuf::from_vec(build_segment(A, 1, B, 2, &data_seg));
    time.call("net.tcp.wire_parse_ns", || {
        black_box(TcpSegment::parse(A, B, &data_wire).expect("parses"));
    });
    time.call("net.tcp.wire_build_ns", || {
        black_box(build_segment(A, 1, B, 2, &data_seg));
    });
    exchange(&mut client, &mut server, vec![data_seg], A, B);

    time.call("net.tcp.seg_cycle_ns_mss", || {
        seg_cycle(&mut client, &mut server, &mss_payload)
    });
    alloc::start();
    const COUNTED: u64 = 1_000;
    for _ in 0..COUNTED {
        seg_cycle(&mut client, &mut server, &mss_payload);
    }
    time.out.push((
        "net.tcp.seg_cycle_allocs",
        alloc::stop().0 as f64 / COUNTED as f64,
    ));
    time.call("net.tcp.seg_cycle_ns_64", || {
        seg_cycle(&mut client, &mut server, &mss_payload[..64])
    });

    time.call("net.tcp.lifecycle_ns", || {
        let (mut c, mut s) = established();
        let fin = c.app_close(Time::ZERO).segments;
        exchange(&mut c, &mut s, fin, A, B);
        let fin = s.app_close(Time::ZERO).segments;
        exchange(&mut s, &mut c, fin, B, A);
        black_box((c.state(), s.state()));
    });

    // Two segments arriving swapped: the first is stashed out of order,
    // the second fills the hole and delivers both.
    let (mut sender, mut receiver) = established();
    time.call("net.tcp.ooo_cycle_ns", || {
        let now = Time::ZERO;
        let mut segs = sender.app_send(&mss_payload[..], now).segments;
        segs.extend(sender.app_send(&mss_payload[..], now).segments);
        let mut acks = Vec::new();
        for seg in segs.iter().rev() {
            let wire = build_segment(A, 1, B, 2, seg);
            acks.extend(receiver.on_segment(&parse(A, B, wire), now).segments);
        }
        for ack in &acks {
            let wire = build_segment(B, 2, A, 1, ack);
            black_box(sender.on_segment(&parse(B, A, wire), now));
        }
    });

    let mut table: ConnTable<Entry> = ConnTable::new();
    let quad = |i: u32| {
        (
            Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8),
            40_000 + (i % 20_000) as u16,
            80u16,
        )
    };
    for i in 0..10_000 {
        table.insert(Entry(quad(i)));
    }
    let mut i = 0u32;
    time.call("net.tcp.demux_lookup_ns", || {
        i = (i + 7919) % 10_000;
        let id = table.lookup_quad(&quad(i)).expect("present");
        black_box(table.get(id).expect("present"));
    });

    let mut get = Request::get("/tweet?k=t00001234");
    get.headers.push(("x-op".into(), format!("{:016x}", 1234)));
    let request_wire = PktBuf::from_vec(get.encode());
    time.call("http.parse_request_ns", || {
        let mut parser = RequestParser::new();
        parser.feed(request_wire.clone());
        black_box(parser.take().expect("well-formed").expect("complete"));
    });
    let tweet = vec![b'x'; 140];
    time.call("http.encode_response_ns", || {
        black_box(Response::ok("text/plain", tweet.clone()).encode());
    });

    let zone = Zone::synthesize("bench.example", 10_000);
    let query = |host: u32| {
        let name = DnsName::parse(&format!("host{host}.bench.example")).expect("valid name");
        Message::query(host as u16, name, RType::A).encode()
    };
    let memo = DnsServer::new(zone.clone(), ServerConfig::default());
    let hot = query(17);
    memo.answer(&hot);
    time.call("dns.answer_hit_ns", || {
        black_box(memo.answer(&hot).expect("answered"));
    });
    let fresh = DnsServer::new(
        zone,
        ServerConfig {
            memoize: false,
            ..ServerConfig::default()
        },
    );
    let queries: Vec<Vec<u8>> = (0..1_000).map(query).collect();
    let mut q = 0usize;
    time.call("dns.answer_miss_ns", || {
        q = (q + 1) % queries.len();
        black_box(fresh.answer(&queries[q]).expect("answered"));
    });

    let tree = Tree::new(MemLog::new());
    let key = |k: u32| format!("key{k:08}").into_bytes();
    let value = vec![b'v'; 128];
    for k in 0..4_000 {
        ready(tree.set(&key(k), &value)).expect("preload");
    }
    let mut k = 0u32;
    time.call("storage.btree.get_ns", || {
        k = (k + 7919) % 4_000;
        black_box(ready(tree.get(&key(k))).expect("readable"));
    });
    time.call("storage.btree.set_ns", || {
        k = (k + 7919) % 4_000;
        ready(tree.set(&key(k), &value)).expect("writable");
    });

    out
}
