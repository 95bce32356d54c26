//! Adversarial-traffic suite: seeded attacks driven through the real
//! data path.
//!
//! Where `tests/chaos.rs` models a hostile *environment* (loss, faults,
//! crashes), this suite models a hostile *peer*: SYN floods against the
//! accept path, sequence-number injection against reassembly, hostile
//! corpora against every wire parser, and page-table attacks against a
//! layout-randomized image. The defences live in product code — the
//! bounded listen backlog and SYN-cookie fallback in `mirage-net`, the
//! first-received-wins reassembly hardening, the length-validating
//! parsers, and the sealed randomized address space; this file is the
//! gate that proves they hold.
//!
//! Every attack schedule derives from `MIRAGE_TEST_SEED` via named
//! xoshiro streams, so any failing assertion line is a one-variable
//! reproduction recipe, and `same_seed_runs_reproduce_byte_identical_schedules`
//! checks the recipe is exact.

use std::sync::{Arc, OnceLock};

use mirage::core::{Appliance, DceLevel, Library};
use mirage::devices::netfront::CopyDiscipline;
use mirage::devices::Backend;
use mirage::devices::{DriverDomain, Tap, Xenstore};
use mirage::dns::{DnsName, DnsServer, Message, RType, ServerConfig, Zone};
use mirage::http::{
    HandlerFuture, HttpConnection, HttpError, HttpServer, Request, RequestParser, Response,
    ResponseParser, Router,
};
use mirage::hypervisor::memory::{Mapping, MemError, Region};
use mirage::hypervisor::{Dur, Hypervisor, Time};
use mirage::net::tcp::{
    self, build_segment, segment_len, write_segment, Connection, Event, Flags, SegmentOut,
    TcpConfig, TcpSegment,
};
use mirage::net::{arp, ethernet, ipv4, Ipv4Addr, Mac, PktBuf, Stack, StackConfig, StackStats};
use mirage::openflow::{FlowModCommand, OfAction, OfMatch, OfMessage, NO_BUFFER};
use mirage::runtime::UnikernelGuest;
use mirage_testkit::corpus::CorpusGen;
use mirage_testkit::rng::{fnv1a, Rng};
use mirage_testkit::sync::Mutex;
use mirage_testkit::test_seed;

/// The deployment sims are heavyweight and share process-global state;
/// adversarial tests take this lock so they never interleave.
fn adversarial_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Deterministic payload so injected bytes show up as a byte-level
/// mismatch, not just a length error.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 31 + 7) & 0xFF) as u8).collect()
}

// ================================================================ SYN flood

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 80);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 99);
const ATTACKER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 66);
const ATTACKER_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x66];
const BACKLOG: usize = 8;

/// One raw frame carrying `seg` from the attacker tap to the server's
/// port 80, each layer written in place (the source port doubles as the
/// IPv4 ident).
fn attacker_frame(src_port: u16, seg: &SegmentOut) -> Vec<u8> {
    let len = segment_len(seg);
    let mut f = vec![0; ethernet::HEADER_LEN + ipv4::HEADER_LEN + len];
    let (eth, ip) = f.split_at_mut(ethernet::HEADER_LEN);
    ethernet::write_header(
        eth,
        Mac::local(80),
        Mac(ATTACKER_MAC),
        ethernet::EtherType::Ipv4,
    );
    let (ip, tcp) = ip.split_at_mut(ipv4::HEADER_LEN);
    ipv4::write_header(
        ip,
        ATTACKER_IP,
        SERVER_IP,
        ipv4::protocol::TCP,
        src_port,
        len,
    );
    write_segment(tcp, ATTACKER_IP, src_port, SERVER_IP, 80, seg);
    f
}

/// One raw SYN frame from the attacker tap to the server, with a seeded
/// ISN and an attacker-chosen source port (each port is a fresh quad).
fn syn_frame(src_port: u16, isn: u32) -> Vec<u8> {
    let seg = SegmentOut {
        seq: isn,
        ack: 0,
        flags: Flags {
            syn: true,
            ..Flags::default()
        },
        window: 65535,
        mss: Some(1460),
        wscale: None,
        payload: PktBuf::empty(),
    };
    attacker_frame(src_port, &seg)
}

/// One broadcast ARP request from the attacker's MAC claiming `spa`. With
/// `ATTACKER_IP` it teaches the server's stack the attacker's MAC, so its
/// SYN+ACKs unicast straight back instead of queueing behind ARP.
fn attacker_arp_frame(spa: Ipv4Addr) -> Vec<u8> {
    let req = arp::ArpPacket {
        op: arp::ArpOp::Request,
        sha: Mac(ATTACKER_MAC),
        spa,
        tha: Mac::ZERO,
        tpa: SERVER_IP,
    };
    let mut f = vec![0; ethernet::HEADER_LEN + arp::ARP_LEN];
    ethernet::write_header(
        &mut f,
        Mac::BROADCAST,
        Mac(ATTACKER_MAC),
        ethernet::EtherType::Arp,
    );
    req.write(&mut f[ethernet::HEADER_LEN..]);
    f
}

/// Builds the flood topology: dom0 with an attacker tap, an HTTP
/// appliance with a bounded listen backlog, and a stats sampler that
/// keeps the latest [`StackStats`] visible to the host test.
struct FloodRig {
    hv: Hypervisor,
    tap: Tap,
    d0: mirage::hypervisor::DomainId,
    stats: Arc<Mutex<Option<StackStats>>>,
    xs: Xenstore,
}

fn flood_rig() -> FloodRig {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(600_000_000);

    let tap = Tap::new(ATTACKER_MAC);
    let mut dom0 = DriverDomain::new(xs.clone());
    dom0.add_tap(tap.clone());
    let d0 = hv.create_domain("dom0", 512, Box::new(dom0));

    let stats_out: Arc<Mutex<Option<StackStats>>> = Arc::new(Mutex::new(None));
    let stats_in = Arc::clone(&stats_out);
    let (front_s, nh_s) =
        Backend::XenRing.net(xs.clone(), "web", Mac::local(80).0, CopyDiscipline::ZeroCopy);
    let mut server = UnikernelGuest::new(move |_env, rt| {
        let cfg = StackConfig::builder(SERVER_IP)
            .listen_backlog(BACKLOG)
            .build()
            .expect("valid stack config");
        let stack = Stack::spawn(rt, nh_s, cfg);
        let sampler_stack = stack.clone();
        let rt_sample = rt.clone();
        let _ = rt.spawn(async move {
            loop {
                rt_sample.sleep(Dur::millis(10)).await;
                if let Ok(s) = sampler_stack.stack_stats().await {
                    *stats_in.lock() = Some(s);
                }
            }
        });
        let rt2 = rt.clone();
        rt.spawn(async move {
            let router = Router::new().get("/data", |_req: Request| -> HandlerFuture {
                Box::pin(async { Response::ok("text/plain", pattern(8 * 1024)) })
            });
            let listener = stack.tcp_listen(80).await.unwrap();
            HttpServer::new(router).serve(rt2, listener).await
        })
    });
    server.add_device(front_s);
    hv.create_domain("web-appliance", 32, Box::new(server));

    FloodRig {
        hv,
        tap,
        d0,
        stats: stats_out,
        xs,
    }
}

/// Tentpole scenario 1: a sustained SYN flood from a spoofing attacker
/// fills the bounded backlog, the stack falls back to stateless SYN
/// cookies, and a legitimate client still completes an HTTP transfer
/// while the flood is running.
#[test]
fn syn_flood_cannot_starve_a_legitimate_client() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let mut rig = flood_rig();

    let result_out: Arc<Mutex<Option<bool>>> = Arc::new(Mutex::new(None));
    let result_in = Arc::clone(&result_out);
    let (front_c, nh_c) =
        Backend::XenRing.net(rig.xs.clone(), "cli", Mac::local(99).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            // Let the flood fill the backlog first, then connect into it.
            rt2.sleep(Dur::millis(30)).await;
            let mut conn = loop {
                match HttpConnection::open(&stack, SERVER_IP, 80).await {
                    Ok(c) => break c,
                    Err(_) => rt2.sleep(Dur::millis(20)).await,
                }
            };
            let resp = conn.request(&Request::get("/data")).await.unwrap();
            let ok = resp.status == 200 && resp.body == pattern(8 * 1024);
            *result_in.lock() = Some(ok);
            conn.close().await;
            if ok {
                0
            } else {
                1
            }
        })
    });
    client.add_device(front_c);
    let cdom = rig.hv.create_domain("legit-client", 32, Box::new(client));

    // Boot the stacks, then flood: 16 fresh-quad SYNs every 2 ms for
    // 300 ms of virtual time, sustained across the client's transfer.
    let mut t = Time::ZERO + Dur::millis(2);
    rig.hv.run_until(t);
    rig.tap
        .inject(PktBuf::from_vec(attacker_arp_frame(ATTACKER_IP)));
    rig.hv.wake_external(rig.d0);

    let mut rng = Rng::for_stream(seed, "syn-flood");
    let mut src_port: u16 = 1024;
    for _round in 0..150 {
        for _ in 0..16 {
            rig.tap
                .inject(PktBuf::from_vec(syn_frame(src_port, rng.next_u32())));
            src_port = src_port.checked_add(1).unwrap_or(1024);
        }
        rig.hv.wake_external(rig.d0);
        t += Dur::millis(2);
        rig.hv.run_until(t);
    }
    rig.hv.run_until(Time::ZERO + Dur::secs(30));

    assert_eq!(
        rig.hv.exit_code(cdom),
        Some(0),
        "legitimate client completed its transfer under flood; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(result_out.lock().take(), Some(true));
    let stats = rig.stats.lock().expect("sampler captured stack stats");
    assert!(
        stats.max_half_open <= BACKLOG as u64,
        "half-open occupancy stayed under the configured backlog \
         (stats: {stats:?}); reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        stats.max_half_open >= 1,
        "the flood actually created half-open state (stats: {stats:?}); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        stats.syn_cookies_sent >= 100,
        "overflow SYNs were answered statelessly (stats: {stats:?}); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        stats.syn_cookies_accepted >= 1,
        "the legitimate client was accepted via a returning cookie \
         (stats: {stats:?}); reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        stats.max_conns <= (BACKLOG + 4) as u64,
        "the connection table never ballooned (stats: {stats:?}); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

/// An ARP flood from thousands of source addresses, four times what the
/// server's ARP cache holds, arrives before a legitimate client's first
/// frame. The cache stays capped, and the server still learns the client
/// it must answer: an address that frames wait for is always learned.
#[test]
fn an_arp_flood_cannot_stop_a_stack_answering_its_real_peer() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let mut rig = flood_rig();

    let result_out: Arc<Mutex<Option<bool>>> = Arc::new(Mutex::new(None));
    let result_in = Arc::clone(&result_out);
    let (front_c, nh_c) =
        Backend::XenRing.net(rig.xs.clone(), "cli", Mac::local(99).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            // Connect once the flood has filled the server's cache.
            rt2.sleep(Dur::millis(100)).await;
            let mut conn = HttpConnection::open(&stack, SERVER_IP, 80).await.unwrap();
            let resp = conn.request(&Request::get("/data")).await.unwrap();
            let ok = resp.status == 200 && resp.body == pattern(8 * 1024);
            *result_in.lock() = Some(ok);
            conn.close().await;
            if ok {
                0
            } else {
                1
            }
        })
    });
    client.add_device(front_c);
    let cdom = rig.hv.create_domain("legit-client", 32, Box::new(client));

    // 64 requests a millisecond, each from a fresh seeded address in
    // 10.128.0.0/9 (well away from the client's 10.0.0.99).
    let mut t = Time::ZERO + Dur::millis(2);
    rig.hv.run_until(t);
    let mut rng = Rng::for_stream(seed, "arp-flood");
    for _round in 0..4 * arp::MAX_ENTRIES / 64 {
        for _ in 0..64 {
            let spa = Ipv4Addr::from(0x0A80_0000 | (rng.next_u32() & 0x007F_FFFF));
            rig.tap.inject(PktBuf::from_vec(attacker_arp_frame(spa)));
        }
        rig.hv.wake_external(rig.d0);
        t += Dur::millis(1);
        rig.hv.run_until(t);
    }
    rig.hv.run_until(Time::ZERO + Dur::secs(30));

    assert_eq!(
        rig.hv.exit_code(cdom),
        Some(0),
        "the client was answered beside the ARP flood; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(result_out.lock().take(), Some(true));
}

/// Tentpole scenario 2 (connection-table exhaustion): an attacker who
/// skips the SYN and sprays forged cookie ACKs — guessing the MAC —
/// never materializes a connection. Every forged ACK draws a stateless
/// RST and the table stays empty.
#[test]
fn forged_cookie_acks_never_create_connection_state() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let mut rig = flood_rig();

    let mut t = Time::ZERO + Dur::millis(2);
    rig.hv.run_until(t);
    rig.tap
        .inject(PktBuf::from_vec(attacker_arp_frame(ATTACKER_IP)));
    rig.hv.wake_external(rig.d0);

    let mut rng = Rng::for_stream(seed, "forged-cookie");
    let mut src_port: u16 = 2048;
    for _round in 0..40 {
        for _ in 0..16 {
            let seg = SegmentOut {
                seq: rng.next_u32(),
                ack: rng.next_u32(), // a guessed cookie ISN + 1
                flags: Flags::ACK,
                window: 65535,
                mss: None,
                wscale: None,
                payload: PktBuf::empty(),
            };
            rig.tap
                .inject(PktBuf::from_vec(attacker_frame(src_port, &seg)));
            src_port = src_port.checked_add(1).unwrap_or(2048);
        }
        rig.hv.wake_external(rig.d0);
        t += Dur::millis(2);
        rig.hv.run_until(t);
    }
    rig.hv.run_until(Time::ZERO + Dur::secs(2));

    // Everything that came back to the attacker must be a RST; a single
    // SYN+ACK or data segment would mean a forged cookie was honoured.
    let mut rsts = 0u32;
    let mut non_rsts = 0u32;
    for frame in rig.tap.harvest() {
        let bytes = frame.as_slice().to_vec();
        let Some(eth) = ethernet::Frame::parse(&bytes) else {
            continue;
        };
        if eth.ethertype != ethernet::EtherType::Ipv4 {
            continue; // ARP chatter
        }
        let Ok(ip) = ipv4::Ipv4Packet::parse(eth.payload) else {
            continue;
        };
        if ip.protocol != ipv4::protocol::TCP {
            continue;
        }
        let Some(seg) = TcpSegment::parse(ip.src, ip.dst, &PktBuf::from_vec(ip.payload.to_vec()))
        else {
            continue;
        };
        if seg.flags.rst {
            rsts += 1;
        } else {
            non_rsts += 1;
        }
    }
    assert!(
        rsts > 0,
        "forged ACKs drew stateless RSTs; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(
        non_rsts, 0,
        "no forged ACK was ever honoured with a non-RST reply; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let stats = rig.stats.lock().expect("sampler captured stack stats");
    assert_eq!(
        stats.syn_cookies_accepted, 0,
        "no forged cookie validated (stats: {stats:?}); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(
        stats.max_conns, 0,
        "the connection table stayed empty (stats: {stats:?}); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

// ==================================================== sans-io TCP battles

const A: std::net::Ipv4Addr = std::net::Ipv4Addr::new(10, 0, 0, 1);
const B: std::net::Ipv4Addr = std::net::Ipv4Addr::new(10, 0, 0, 2);

/// Wire-level pump between two sans-io connections via real
/// serialisation (the idiom from the `mirage-net` unit tests).
fn pump(
    a: &mut Connection,
    b: &mut Connection,
    a_out: &mut Vec<SegmentOut>,
    b_out: &mut Vec<SegmentOut>,
    now: &mut Time,
) -> (Vec<Event>, Vec<Event>) {
    let mut ev_a = Vec::new();
    let mut ev_b = Vec::new();
    for _ in 0..400 {
        *now += Dur::millis(1);
        let mut quiet = true;
        for seg in std::mem::take(a_out) {
            let wire = PktBuf::from_vec(build_segment(A, 1000, B, 2000, &seg));
            let parsed = TcpSegment::parse(A, B, &wire).expect("valid segment");
            let out = b.on_segment(&parsed, *now);
            b_out.extend(out.segments);
            ev_b.extend(out.events);
            quiet = false;
        }
        for seg in std::mem::take(b_out) {
            let wire = PktBuf::from_vec(build_segment(B, 2000, A, 1000, &seg));
            let parsed = TcpSegment::parse(B, A, &wire).expect("valid segment");
            let out = a.on_segment(&parsed, *now);
            a_out.extend(out.segments);
            ev_a.extend(out.events);
            quiet = false;
        }
        if quiet {
            break;
        }
    }
    (ev_a, ev_b)
}

/// Establishes a client (iss 100) against a server (iss 9000); after the
/// handshake the client's `rcv_nxt` is 9001.
fn handshake(cfg: TcpConfig) -> (Connection, Connection, Time) {
    let mut now = Time::ZERO;
    let (mut client, out) = Connection::connect(cfg.clone(), 100, now);
    let mut server = Connection::listen(cfg, 9000);
    let mut c_out = out.segments;
    let mut s_out = Vec::new();
    let (ev_c, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now);
    assert!(ev_c.contains(&Event::Connected));
    assert!(ev_s.contains(&Event::Connected));
    (client, server, now)
}

/// Delivers a hand-crafted segment from the server side (B:2000) to the
/// client over real serialisation — the attacker's injection primitive.
fn deliver_from_b(client: &mut Connection, seg: &SegmentOut, now: Time) -> tcp::Output {
    let wire = PktBuf::from_vec(build_segment(B, 2000, A, 1000, seg));
    let parsed = TcpSegment::parse(B, A, &wire).expect("valid segment");
    client.on_segment(&parsed, now)
}

fn data_seg(seq: u32, payload: Vec<u8>) -> SegmentOut {
    SegmentOut {
        seq,
        ack: 101,
        flags: Flags::ACK,
        window: 65535,
        mss: None,
        wscale: None,
        payload: PktBuf::from_vec(payload),
    }
}

fn rst_seg(seq: u32) -> SegmentOut {
    SegmentOut {
        seq,
        ack: 101,
        flags: Flags {
            rst: true,
            ..Flags::default()
        },
        window: 0,
        mss: None,
        wscale: None,
        payload: PktBuf::empty(),
    }
}

/// Tentpole scenario 3: overlapping retransmits with conflicting bytes.
/// The first-received byte wins, the conflicting copies are counted and
/// dropped, and exact duplicates are not miscounted as conflicts.
#[test]
fn overlapping_retransmits_first_received_bytes_win() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let (mut client, _server, now) = handshake(TcpConfig::default());

    // Out-of-order original: bytes 9011..9021 arrive first as 0xAA.
    let out = deliver_from_b(&mut client, &data_seg(9011, vec![0xAA; 10]), now);
    assert!(out.events.is_empty(), "stashed, not delivered");

    // Conflicting "retransmit" claims 9006..9026 as 0xBB. Only the
    // uncovered flanks may land; the 0xAA middle must survive.
    deliver_from_b(&mut client, &data_seg(9006, vec![0xBB; 20]), now);
    assert!(
        client.stats().overlap_conflicts >= 1,
        "the conflicting overlap was counted; reproduce with MIRAGE_TEST_SEED={seed}"
    );

    // An exact duplicate of the original is benign — not a conflict.
    let conflicts_before = client.stats().overlap_conflicts;
    deliver_from_b(&mut client, &data_seg(9011, vec![0xAA; 10]), now);
    assert_eq!(
        client.stats().overlap_conflicts,
        conflicts_before,
        "byte-identical overlap is not a conflict; reproduce with MIRAGE_TEST_SEED={seed}"
    );

    // Fill the head hole 9001..9006; everything drains in order.
    let out = deliver_from_b(&mut client, &data_seg(9001, vec![0xCC; 5]), now);
    let mut delivered = Vec::new();
    for ev in out.events {
        if let Event::Data(buf) = ev {
            delivered.extend_from_slice(buf.as_slice());
        }
    }
    let mut expected = vec![0xCC; 5];
    expected.extend_from_slice(&[0xBB; 5]);
    expected.extend_from_slice(&[0xAA; 10]);
    expected.extend_from_slice(&[0xBB; 5]);
    assert_eq!(
        delivered, expected,
        "first-received bytes won the overlap battle; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

/// Runs the seeded blind-injection battle and returns the client's final
/// stats plus a byte-exact transcript of the schedule (reused by the
/// determinism test).
fn blind_injection_battle(seed: u64) -> (tcp::TcpStats, String) {
    let (mut client, _server, now) = handshake(TcpConfig::default());
    let recv_buf = TcpConfig::default().recv_buf;
    let mut rng = Rng::for_stream(seed, "blind-rst");
    let mut transcript = String::new();

    // 200 blind RST guesses over the whole sequence space: none may
    // tear the connection down, every one must be counted.
    for i in 0..200u32 {
        let mut guess = rng.next_u32();
        if guess == 9001 {
            guess ^= 0x8000_0000; // keep the guess blind
        }
        let out = deliver_from_b(&mut client, &rst_seg(guess), now);
        assert!(
            out.events.is_empty() && client.state() == tcp::State::Established,
            "blind RST guess {guess:#x} must not reset; \
             reproduce with MIRAGE_TEST_SEED={seed}"
        );
        transcript.push_str(&format!("rst {i} {guess:08x} {}\n", out.segments.len()));
    }

    // A deliberately in-window (but inexact) RST draws a challenge ACK
    // and still does not reset.
    let out = deliver_from_b(&mut client, &rst_seg(9001 + 1000), now);
    assert!(
        !out.segments.is_empty(),
        "in-window inexact RST draws a challenge ACK; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(client.state(), tcp::State::Established);

    // Data injection claiming to come from beyond the receive window is
    // dropped and counted, never delivered.
    let beyond = 9001u32.wrapping_add(recv_buf as u32 + 5000);
    let out = deliver_from_b(&mut client, &data_seg(beyond, vec![0x6A; 32]), now);
    assert!(
        !out.events.iter().any(|e| matches!(e, Event::Data(_))),
        "out-of-window data never reaches the application; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(client.state(), tcp::State::Established);

    // Only exact sequence knowledge resets the connection.
    let out = deliver_from_b(&mut client, &rst_seg(9001), now);
    assert!(
        out.events.contains(&Event::Reset),
        "an exact-sequence RST still works; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let stats = client.stats();
    transcript.push_str(&format!("final {stats:?}\n"));
    (stats, transcript)
}

/// Tentpole scenario 4: blind RST/data injection. 201 inexact guesses
/// are all dropped and counted; the exact one still resets.
#[test]
fn blind_rst_and_data_injection_need_exact_sequence_knowledge() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let (stats, _transcript) = blind_injection_battle(seed);
    assert_eq!(
        stats.injections_dropped,
        200 + 1 + 1, // blind RSTs + in-window RST + out-of-window data
        "every hostile segment was counted (stats: {stats:?}); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

/// Tentpole scenario 5: one hostile flow spraying distinct in-window
/// out-of-order segments cannot exhaust memory — the reassembly buffer
/// is capped, evictions are counted, and the connection recovers to a
/// byte-perfect stream once the real data is retransmitted in order.
#[test]
fn ooo_reassembly_buffer_is_bounded_and_recovers() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let (mut client, _server, now) = handshake(TcpConfig::default());
    let stream = pattern(2048);

    // 300 single-byte out-of-order segments at distinct in-window
    // offsets (all > 0, so none is deliverable), 44 past the cap.
    let sprayed = tcp::OOO_MAX_SEGMENTS + 44;
    for i in 0..sprayed {
        let off = 1 + 2 * i;
        let seg = data_seg(9001 + off as u32, vec![stream[off]]);
        deliver_from_b(&mut client, &seg, now);
    }
    let stats = client.stats();
    assert_eq!(
        stats.ooo_evictions, 44,
        "the cap held: 300 stashes, 256 retained, 44 evicted \
         (stats: {stats:?}); reproduce with MIRAGE_TEST_SEED={seed}"
    );

    // The legitimate sender retransmits the stream in order; delivery
    // must be byte-perfect despite the leftover stash fragments.
    let mut delivered = Vec::new();
    for k in 0..4u32 {
        let off = (k * 512) as usize;
        let out = deliver_from_b(
            &mut client,
            &data_seg(9001 + off as u32, stream[off..off + 512].to_vec()),
            now,
        );
        for ev in out.events {
            if let Event::Data(buf) = ev {
                delivered.extend_from_slice(buf.as_slice());
            }
        }
    }
    assert_eq!(
        delivered, stream,
        "the stream reassembled byte-perfect after eviction pressure; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let stats = client.stats();
    assert_eq!(
        stats.overlap_conflicts, 0,
        "consistent retransmits never count as conflicts \
         (stats: {stats:?}); reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(client.state(), tcp::State::Established);
}

// ============================================================ parser fuzz

const FUZZ_CASES: usize = 1200;

fn dns_exemplars() -> Vec<Vec<u8>> {
    let q1 = Message::query(1, DnsName::parse("host7.example.org").unwrap(), RType::A).encode();
    let q2 = Message::query(
        2,
        DnsName::parse("deep.sub.zone.example.org").unwrap(),
        RType::Ns,
    )
    .encode();
    let zone = Zone::synthesize("example.org", 16);
    let server = DnsServer::new(zone, ServerConfig::default());
    let resp = server.answer(&q1).expect("authoritative answer");
    vec![q1, q2, resp]
}

fn http_exemplars() -> Vec<Vec<u8>> {
    vec![
        Request::get("/data").encode(),
        Request::post("/submit", pattern(64)).encode(),
        Response::ok("text/plain", pattern(128)).encode(),
        Response::status(404).encode(),
    ]
}

fn of_exemplars() -> Vec<Vec<u8>> {
    let flow_mod = OfMessage::FlowMod {
        xid: 5,
        mat: OfMatch {
            in_port: Some(1),
            dl_src: Some(Mac::local(1).0),
            dl_dst: Some(Mac::local(2).0),
            dl_type: Some(0x0800),
        },
        command: FlowModCommand::Add,
        priority: 10,
        idle_timeout: 60,
        actions: vec![OfAction::Output(2)],
    };
    vec![
        OfMessage::Hello { xid: 1 }.encode(),
        OfMessage::EchoRequest {
            xid: 2,
            payload: pattern(16),
        }
        .encode(),
        OfMessage::FeaturesReply {
            xid: 3,
            datapath_id: 0xD1,
            n_ports: 4,
        }
        .encode(),
        OfMessage::PacketIn {
            xid: 4,
            buffer_id: NO_BUFFER,
            in_port: 1,
            data: pattern(32),
        }
        .encode(),
        flow_mod.encode(),
        OfMessage::Error {
            xid: 6,
            etype: 1,
            code: 2,
        }
        .encode(),
    ]
}

/// Tentpole scenario 6: ≥1000 seeded structure-aware mutations of valid
/// DNS wire messages. The parser must return errors — never panic,
/// never over-read a view (an over-read would panic and be caught here).
#[test]
fn dns_parser_survives_a_seeded_hostile_corpus() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let exemplars = dns_exemplars();
    let corpus = CorpusGen::for_stream(seed, "fuzz-dns").corpus(&exemplars, FUZZ_CASES);
    let zone = Zone::synthesize("example.org", 16);
    let server = DnsServer::new(zone, ServerConfig::default());

    let mut errs = 0usize;
    let mut panics = 0usize;
    for case in &corpus {
        let outcome = std::panic::catch_unwind(|| {
            let parsed = Message::parse(case);
            let _ = server.answer(case);
            parsed.is_err()
        });
        match outcome {
            Ok(true) => errs += 1,
            Ok(false) => {}
            Err(_) => panics += 1,
        }
    }
    assert_eq!(
        panics, 0,
        "zero panics across {FUZZ_CASES} hostile DNS cases; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        errs > FUZZ_CASES / 20,
        "the corpus was actually hostile ({errs} parse errors); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

/// The two HTTP parsers behind one face, for the chunking oracle.
trait Framed: Default {
    type Message: PartialEq + std::fmt::Debug;
    fn feed(&mut self, piece: &[u8]);
    fn take(&mut self) -> Result<Option<Self::Message>, HttpError>;
}

impl Framed for RequestParser {
    type Message = Request;
    fn feed(&mut self, piece: &[u8]) {
        RequestParser::feed(self, piece.to_vec());
    }
    fn take(&mut self) -> Result<Option<Request>, HttpError> {
        RequestParser::take(self)
    }
}

impl Framed for ResponseParser {
    type Message = Response;
    fn feed(&mut self, piece: &[u8]) {
        ResponseParser::feed(self, piece.to_vec());
    }
    fn take(&mut self) -> Result<Option<Response>, HttpError> {
        ResponseParser::take(self)
    }
}

/// What a fresh parser makes of `bytes` cut at `cuts`, taking every
/// message it can after each feed: the messages taken, then the first
/// error, if any.
fn framed<P: Framed>(bytes: &[u8], cuts: &[usize]) -> (Vec<P::Message>, Option<HttpError>) {
    let mut parser = P::default();
    let mut taken = Vec::new();
    let ends = cuts.iter().copied().chain([bytes.len()]);
    let mut from = 0;
    for to in ends {
        parser.feed(&bytes[from..to]);
        from = to;
        loop {
            match parser.take() {
                Ok(Some(message)) => taken.push(message),
                Ok(None) => break,
                Err(e) => return (taken, Some(e)),
            }
        }
    }
    (taken, None)
}

/// Seeded cut points for `len` bytes: pieces of 1 byte up to 128, so both
/// byte-at-a-time and few-chunk feeds occur.
fn seeded_cuts(rng: &mut Rng, len: usize) -> Vec<usize> {
    let max_piece = 1usize << rng.gen_range(0..8u32);
    let mut cuts = Vec::new();
    let mut at = rng.gen_range(1..=max_piece);
    while at < len {
        cuts.push(at);
        at += rng.gen_range(1..=max_piece);
    }
    cuts
}

/// Tentpole scenario 7: the HTTP request/response parsers over the same
/// mutation classes, plus the explicit content-length-lie cases. Each case
/// is also fed in a seeded chunking: the framer keeps state between
/// `take()` calls, and what it returns must not depend on where the
/// chunks were cut.
#[test]
fn http_parsers_survive_a_seeded_hostile_corpus() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let exemplars = http_exemplars();
    let corpus = CorpusGen::for_stream(seed, "fuzz-http").corpus(&exemplars, FUZZ_CASES);
    let mut rng = Rng::for_stream(seed, "http-chunking");

    let mut errs = 0usize;
    let mut panics = 0usize;
    for (i, case) in corpus.iter().enumerate() {
        let cuts = seeded_cuts(&mut rng, case.len());
        let outcome = std::panic::catch_unwind(|| {
            (
                [
                    framed::<RequestParser>(case, &[]),
                    framed::<RequestParser>(case, &cuts),
                ],
                [
                    framed::<ResponseParser>(case, &[]),
                    framed::<ResponseParser>(case, &cuts),
                ],
            )
        });
        let Ok(([requests, cut_requests], [responses, cut_responses])) = outcome else {
            panics += 1;
            continue;
        };
        let why = format!("case {i} cut at {cuts:?}; reproduce with MIRAGE_TEST_SEED={seed}");
        assert_eq!(cut_requests, requests, "{why}");
        assert_eq!(cut_responses, responses, "{why}");
        if requests.1.is_some() || responses.1.is_some() {
            errs += 1;
        }
    }
    assert_eq!(
        panics, 0,
        "zero panics across {FUZZ_CASES} hostile HTTP cases; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        errs >= 1,
        "the corpus produced at least one parse error; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );

    // The length-lie attack, spelled out: a body claim past the sanity
    // bound is an error up front, not an unbounded buffer.
    let mut p = RequestParser::new();
    p.feed(b"POST /x HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n".to_vec());
    assert_eq!(p.take(), Err(HttpError::TooLarge));
    let mut p = RequestParser::new();
    p.feed(b"POST /x HTTP/1.1\r\ncontent-length: banana\r\n\r\n".to_vec());
    assert_eq!(p.take(), Err(HttpError::Malformed));
}

/// Tentpole scenario 8: the OpenFlow wire parser over the same mutation
/// classes — length-field lies are a classic OF parser crash.
#[test]
fn openflow_parser_survives_a_seeded_hostile_corpus() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let exemplars = of_exemplars();
    let corpus = CorpusGen::for_stream(seed, "fuzz-of").corpus(&exemplars, FUZZ_CASES);

    let mut errs = 0usize;
    let mut panics = 0usize;
    for case in &corpus {
        match std::panic::catch_unwind(|| OfMessage::parse(case).is_err()) {
            Ok(true) => errs += 1,
            Ok(false) => {}
            Err(_) => panics += 1,
        }
    }
    assert_eq!(
        panics, 0,
        "zero panics across {FUZZ_CASES} hostile OpenFlow cases; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        errs > FUZZ_CASES / 20,
        "the corpus was actually hostile ({errs} parse errors); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

// ===================================================== ASLR and sealing

/// Tentpole scenario 9: address-space randomization over the image
/// layout, with the seal surviving it. Layouts vary per seed yet rebuild
/// identically per seed, and a randomized, sealed appliance still rejects
/// every page-table attack.
#[test]
fn aslr_randomizes_layout_while_sealing_still_holds() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let mut rng = Rng::for_stream(seed, "aslr");
    let layout_seeds: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();

    // Compile-time layout randomization: the would-be ROP target moves
    // across deployments, and same-seed builds are reproducible.
    let build = |s: u64| {
        Appliance::builder("dns")
            .library(Library::APP_DNS)
            .dce(DceLevel::FunctionLevel)
            .layout_seed(s)
            .build()
            .unwrap()
    };
    let addrs: Vec<u64> = layout_seeds
        .iter()
        .map(|&s| {
            let a = build(s);
            assert!(a.image().layout_is_valid());
            a.image().section_address("udp").expect("udp linked")
        })
        .collect();
    let distinct: std::collections::HashSet<_> = addrs.iter().collect();
    assert!(
        distinct.len() >= 6,
        "section addresses vary across seeded deployments: {addrs:?}; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(
        build(layout_seeds[0]).image(),
        build(layout_seeds[0]).image(),
        "same layout seed rebuilds the identical image; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );

    // W^X and the seal survive randomization: for two different layouts
    // the compromised-runtime attack battery still bounces.
    for &s in &layout_seeds[..2] {
        let appliance = build(s);
        let guest = appliance.into_guest(32, |env, rt| {
            let base = mirage::pvboot::layout::GUEST_BASE;
            let attacks: [Result<(), MemError>; 3] = [
                env.mmu_protect(base + 0x200000, true, true).map(|_| ()),
                env.mmu_map(Mapping {
                    vaddr: 0x7000_0000,
                    pages: 1,
                    writable: true,
                    executable: true,
                    region: Region::Text,
                }),
                env.mmu_unmap(base).map(|_| ()),
            ];
            for (i, result) in attacks.iter().enumerate() {
                assert!(
                    matches!(result, Err(MemError::Sealed) | Err(MemError::NotMapped)),
                    "attack {i} must bounce off the randomized seal, got {result:?}"
                );
            }
            rt.spawn(async { 0i64 })
        });
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain("aslr-victim", 32, Box::new(guest));
        hv.run();
        assert_eq!(hv.exit_code(dom), Some(0));
        let aspace = hv.address_space(dom);
        assert!(
            aspace.is_sealed() && aspace.satisfies_wx(),
            "W^X survives randomization (layout seed {s:#x}); \
             reproduce with MIRAGE_TEST_SEED={seed}"
        );
        assert!(
            aspace.rejected_updates() >= 2,
            "the attacks were counted; reproduce with MIRAGE_TEST_SEED={seed}"
        );
    }
}

// ========================================================== determinism

/// A byte-exact transcript of every seeded schedule the suite uses:
/// injection battle and all three fuzz corpora.
fn seeded_transcript(seed: u64) -> String {
    let (_stats, mut t) = blind_injection_battle(seed);
    for (name, exemplars) in [
        ("fuzz-dns", dns_exemplars()),
        ("fuzz-http", http_exemplars()),
        ("fuzz-of", of_exemplars()),
    ] {
        let corpus = CorpusGen::for_stream(seed, name).corpus(&exemplars, 300);
        let mut concat = Vec::new();
        for case in &corpus {
            concat.extend_from_slice(&(case.len() as u32).to_be_bytes());
            concat.extend_from_slice(case);
        }
        t.push_str(&format!("{name} {:016x}\n", fnv1a(&concat)));
    }
    t
}

/// Same seed ⇒ byte-identical schedule, stats and outcome; a different
/// seed produces a different schedule.
#[test]
fn same_seed_runs_reproduce_byte_identical_schedules() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let first = seeded_transcript(seed);
    let second = seeded_transcript(seed);
    assert_eq!(
        first, second,
        "two same-seed runs diverged; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let other = seeded_transcript(seed ^ 0xDEAD_BEEF);
    assert_ne!(
        first, other,
        "different seeds drive different schedules; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

// ================================================== virtqueue ring fuzz

use mirage::devices::virtio::virtqueue::{
    self, buf_addr, ChainBuf, DeviceQueue, QueuePages, SplitQueue, QUEUE_SIZE,
};

const VQ: usize = QUEUE_SIZE as usize;

/// A connected virtqueue pair carrying real traffic: several chains of
/// assorted shapes queued, some serviced and some still pending, so the
/// shared pages hold honest descriptor/avail/used images for the fuzzer
/// to mutate — and the private shadow state has in-flight chains the
/// hostile entries can try to double-free or cross-link.
fn live_virtqueue() -> (SplitQueue, DeviceQueue, QueuePages) {
    let pages = QueuePages::new();
    let mut drv = SplitQueue::new(pages.clone());
    let mut dev = DeviceQueue::attach(pages.clone());
    let mut add = |i: u16| {
        let bufs: Vec<ChainBuf> = (0..=(i % 3))
            .map(|j| ChainBuf {
                addr: buf_addr(100 + (i * 4 + j) as u32, (j as usize) * 8),
                len: 256 + 16 * j as u32,
                device_writes: j == 2,
            })
            .collect();
        drv.add_chain(&bufs).expect("room for the setup chains");
    };
    // Six chains published, three taken and answered, one answer reaped —
    // in bursts that end where each half stops reading, so the entries it
    // reads next are still on the page for the fuzzer to reach.
    (0..3).for_each(&mut add);
    let heads: Vec<u16> = (0..3)
        .map(|_| dev.pop_avail().expect("setup chains are available").head)
        .collect();
    (3..6).for_each(add);
    dev.push_used(heads[0], 64);
    let _ = drv.take_used();
    for &head in &heads[1..] {
        dev.push_used(head, 64);
    }
    (drv, dev, pages)
}

/// Splats a (possibly resized) mutated page image over a shared page.
fn splat(page: &mirage::hypervisor::grant::SharedPage, image: &[u8]) {
    page.write(|b| {
        let n = image.len().min(b.len());
        b[..n].copy_from_slice(&image[..n]);
    });
}

/// Walks both halves' invariants after hostile ring state: the free
/// list holds unique in-range ids, disjoint from every in-flight chain,
/// and the pair still round-trips a fresh chain end to end.
fn assert_virtqueue_still_sound(drv: &mut SplitQueue, dev: &mut DeviceQueue, context: &str) {
    let free = drv.debug_free_list();
    let mut sorted = free.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        free.len(),
        "[{context}] free list holds no duplicate descriptor ids"
    );
    assert!(
        free.iter().all(|&id| id < QUEUE_SIZE),
        "[{context}] free list ids stay in range"
    );
    if drv.free_descriptors() > 0 {
        let (head, _) = drv
            .add_chain(&[ChainBuf {
                addr: buf_addr(7, 0),
                len: 64,
                device_writes: false,
            }])
            .expect("a sound queue still accepts a chain");
        assert!(
            free.contains(&head),
            "[{context}] head came off the free list"
        );
        if let Some(chain) = dev.pop_avail() {
            dev.push_used(chain.head, 8);
            // The driver either reclaims this chain or (if the fuzzer
            // already burned the used index forward) resynchronises; it
            // must not free a chain it never queued.
            if let Some((reclaimed, _)) = drv.take_used() {
                assert!(
                    reclaimed < QUEUE_SIZE,
                    "[{context}] reclaimed head in range"
                );
            }
        }
    }
}

/// Satellite: structure-aware fuzz of the device-readable ring pages.
/// The device half parses avail entries and walks descriptor chains from
/// guest-writable shared memory; under `FUZZ_CASES` seeded mutations of
/// honest page images (stale indices, wrapped counters, out-of-range
/// descriptor ids, loops, flag garbage) it must never panic — malformed
/// state is counted in [`virtqueue::VirtqErrors`] and skipped.
#[test]
fn virtqueue_device_survives_hostile_avail_and_desc_pages() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let (_drv0, _dev0, pages0) = live_virtqueue();
    let avail_img = pages0.avail.read(|b| b.to_vec());
    let desc_img = pages0.desc.read(|b| b.to_vec());
    let avail_corpus =
        CorpusGen::for_stream(seed, "fuzz-virtq-avail").corpus(&[avail_img], FUZZ_CASES / 2);
    let desc_corpus =
        CorpusGen::for_stream(seed, "fuzz-virtq-desc").corpus(&[desc_img], FUZZ_CASES / 2);

    let mut panics = 0usize;
    let mut hostile = 0usize;
    for (which, case) in avail_corpus
        .iter()
        .map(|c| (0, c))
        .chain(desc_corpus.iter().map(|c| (1, c)))
    {
        let (mut drv, mut dev, pages) = live_virtqueue();
        splat(if which == 0 { &pages.avail } else { &pages.desc }, case);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // A bounded device service pass over the mutated rings.
            for _ in 0..2 * VQ {
                match dev.pop_avail() {
                    Some(chain) => {
                        for (addr, _len, _w) in &chain.bufs {
                            let _ = virtqueue::split_addr(*addr);
                        }
                        dev.push_used(chain.head, 16);
                    }
                    None => break,
                }
            }
            while drv.take_used().is_some() {}
            dev.errors().total() + drv.errors().total()
        }));
        match outcome {
            Ok(errs) if errs > 0 => hostile += 1,
            Ok(_) => {}
            Err(_) => panics += 1,
        }
        if panics == 0 {
            assert_virtqueue_still_sound(&mut drv, &mut dev, "avail/desc fuzz");
        }
    }
    assert_eq!(
        panics, 0,
        "zero panics across {FUZZ_CASES} hostile avail/desc page images; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        hostile > FUZZ_CASES / 20,
        "the corpus was actually hostile ({hostile} cases tripped the \
         malformed-state counters); reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

/// Satellite: the same treatment for the device-written used ring, which
/// the *driver* parses. A hostile backend must not be able to make the
/// frontend panic, double-free a descriptor chain, or free a chain that
/// was never queued.
#[test]
fn virtqueue_driver_survives_a_hostile_used_ring() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    let (_drv0, _dev0, pages0) = live_virtqueue();
    let used_img = pages0.used.read(|b| b.to_vec());
    let corpus = CorpusGen::for_stream(seed, "fuzz-virtq-used").corpus(&[used_img], FUZZ_CASES);

    let mut panics = 0usize;
    let mut hostile = 0usize;
    for case in &corpus {
        let (mut drv, mut dev, pages) = live_virtqueue();
        splat(&pages.used, case);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut reclaimed = Vec::new();
            for _ in 0..2 * VQ {
                match drv.take_used() {
                    Some((head, _len)) => reclaimed.push(head),
                    None => break,
                }
            }
            // No double-free: every reclaimed head is unique and was
            // actually in flight (take_used skips the rest).
            let mut uniq = reclaimed.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), reclaimed.len(), "no head reclaimed twice");
            drv.errors().total()
        }));
        match outcome {
            Ok(errs) if errs > 0 => hostile += 1,
            Ok(_) => {}
            Err(_) => panics += 1,
        }
        if panics == 0 {
            assert_virtqueue_still_sound(&mut drv, &mut dev, "used fuzz");
        }
    }
    assert_eq!(
        panics, 0,
        "zero panics across {FUZZ_CASES} hostile used-ring images; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        hostile > FUZZ_CASES / 20,
        "the corpus was actually hostile ({hostile} cases tripped the \
         malformed-state counters); reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

/// The three named mutation classes, spelled out deterministically so a
/// regression names the exact defence that fell:
/// * a stale/backwards index (reader sees a > QUEUE_SIZE jump) is
///   resynchronised and counted, not replayed;
/// * wrapped counters (index leapt by more than the ring holds) likewise;
/// * out-of-range descriptor ids — in avail entries, in `next` links and
///   in used entries — are counted and skipped, as are descriptor loops.
#[test]
fn virtqueue_named_mutation_classes_are_counted_and_skipped() {
    let _guard = adversarial_lock().lock();

    // Stale avail index: the driver published 6 chains, then the "guest"
    // rewinds the index far backwards — the device sees a huge pending
    // span and resynchronises.
    let (_drv, mut dev, pages) = live_virtqueue();
    pages.avail.write(|b| b[2..4].copy_from_slice(&900u16.to_le_bytes()));
    assert!(dev.pop_avail().is_none(), "no chain parsed from a stale index");
    assert_eq!(dev.errors().idx_jumps, 1, "the stale index was counted");

    // Wrapped used counter: the "device" claims QUEUE_SIZE + 5 new
    // entries at once; the driver resynchronises instead of replaying.
    let (mut drv, _dev, pages) = live_virtqueue();
    let cooked = 3u16.wrapping_add(QUEUE_SIZE + 5);
    pages.used.write(|b| b[2..4].copy_from_slice(&cooked.to_le_bytes()));
    assert!(drv.take_used().is_none(), "no entry parsed from a wrapped counter");
    assert_eq!(drv.errors().idx_jumps, 1, "the wrapped counter was counted");

    // Out-of-range ids, all three places they can appear.
    let (_drv, mut dev, pages) = live_virtqueue();
    pages.avail.write(|b| {
        // Entry slot 3 (next unread) names descriptor 0x200 > QUEUE_SIZE.
        b[4 + 2 * 3..4 + 2 * 4].copy_from_slice(&0x200u16.to_le_bytes());
    });
    while dev.pop_avail().is_some() {}
    assert!(dev.errors().bad_id >= 1, "the out-of-range avail id was counted");

    let (mut drv, _dev, pages) = live_virtqueue();
    pages.used.write(|b| {
        // Next used entry (slot 3) names id 999.
        let o = 4 + 8 * 3;
        b[o..o + 4].copy_from_slice(&999u32.to_le_bytes());
        b[2..4].copy_from_slice(&4u16.to_le_bytes());
    });
    while drv.take_used().is_some() {}
    assert!(drv.errors().bad_id >= 1, "the out-of-range used id was counted");

    // A self-looping descriptor chain: next -> itself with NEXT set.
    let (_drv3, mut dev3, pages3) = live_virtqueue();
    pages3.desc.write(|b| {
        // Descriptor 0: flags = NEXT, next = 0 (a loop).
        b[12..14].copy_from_slice(&1u16.to_le_bytes());
        b[14..16].copy_from_slice(&0u16.to_le_bytes());
    });
    pages3.avail.write(|b| {
        b[4 + 2 * 3..4 + 2 * 4].copy_from_slice(&0u16.to_le_bytes());
        b[2..4].copy_from_slice(&7u16.to_le_bytes());
    });
    while dev3.pop_avail().is_some() {}
    assert!(
        dev3.errors().bad_chain >= 1,
        "the descriptor loop was abandoned and counted"
    );
}

// ============================================ Xen descriptor ring fuzz

use mirage::ring::desc::{self, RING_SIZE, SLOT_PAYLOAD};
use mirage::ring::{BackRing, FrontRing};

/// A connected descriptor ring mid-traffic: requests outstanding, some
/// answered and reaped, so the shared page holds honest indices and slot
/// images for the fuzzer to mutate.
fn live_ring() -> (FrontRing, BackRing) {
    let (mut front, mut back) = desc::pair();
    let mut push = |i: u8| {
        front
            .push_request(&[i; 24])
            .expect("room for the setup requests");
    };
    // Six requests published, three taken and answered, one answer reaped
    // — in bursts that end where each half stops reading (see
    // `live_virtqueue`).
    (0..3).for_each(&mut push);
    let taken: Vec<_> = (0..3)
        .map(|_| back.take_request().expect("setup requests are queued"))
        .collect();
    (3..6).for_each(push);
    let answer = |back: &mut BackRing, req: &desc::Slot| {
        back.push_response(&req[..9])
            .expect("a response fits its slot");
    };
    answer(&mut back, &taken[0]);
    let _ = front.take_response();
    for req in &taken[1..] {
        answer(&mut back, req);
    }
    (front, back)
}

/// The Xen ring gets what the virtqueue got: both halves decode slots
/// where they lie in a page the peer can rewrite at any time — indices
/// rewound or leapt ahead, length fields claiming more than a slot holds —
/// and under `FUZZ_CASES` seeded mutations of an honest page image neither
/// half may panic or hand out more than a slot's worth of bytes.
#[test]
fn descriptor_ring_survives_a_hostile_shared_page() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    // The live part of the page — header and the slots in use — so the
    // mutations land where the halves read.
    let image = live_ring().0.page().read(|b| b[..64 + 8 * 64].to_vec());
    let corpus = CorpusGen::for_stream(seed, "fuzz-xen-ring").corpus(&[image], FUZZ_CASES);
    // A tripwire, not a bound: one pass hands a half at most one ring's
    // worth — a peer's index, however leapt, buys no more.
    let tripwire = RING_SIZE as usize;
    // One service pass of both halves: what each half was handed.
    let service = |front: &mut FrontRing, back: &mut BackRing| {
        let mut seen = Vec::new();
        while let Some(req) = back.take_request() {
            let _ = back.push_response(&req[..req.len().min(9)]);
            seen.push(req.to_vec());
            assert!(
                seen.len() <= tripwire,
                "tripwire: the backend walked a leapt index"
            );
        }
        let _ = back.pending_requests();
        let _ = back.enable_request_notifications();
        let requests = seen.len();
        while let Some(rsp) = front.take_response() {
            seen.push(rsp.to_vec());
            assert!(
                seen.len() - requests <= tripwire,
                "tripwire: the frontend walked a leapt index"
            );
        }
        let _ = front.free_slots();
        let _ = front.push_request(b"after the storm");
        let _ = front.enable_response_notifications();
        seen
    };
    let honest = {
        let (mut front, mut back) = live_ring();
        service(&mut front, &mut back)
    };
    let mut panics = 0usize;
    let mut hostile = 0usize;
    let mut clamped = 0usize;
    let mut leapt = 0usize;
    for case in &corpus {
        let (mut front, mut back) = live_ring();
        splat(front.page(), case);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service(&mut front, &mut back)
        }));
        match outcome {
            Ok(seen) => {
                assert!(
                    seen.iter().all(|d| d.len() <= SLOT_PAYLOAD),
                    "a descriptor never exceeds its slot"
                );
                clamped += usize::from(seen.iter().any(|d| d.len() == SLOT_PAYLOAD));
                let jumps = front.idx_jumps() + back.idx_jumps();
                leapt += usize::from(jumps > 0);
                hostile += usize::from(seen != honest || jumps > 0);
            }
            Err(_) => panics += 1,
        }
    }
    assert_eq!(
        panics, 0,
        "zero panics across {FUZZ_CASES} hostile ring page images; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    // A leapt index is refused whole and a producer index is private, so
    // fewer mutations reach what a half hands out than when the ring read
    // slot by slot (then 674 and 85 at the default seed); ten seeds
    // measure 565-617 hostile, 25-45 clamped and 334-384 leapt.
    assert!(
        hostile > FUZZ_CASES * 2 / 5 && clamped > FUZZ_CASES / 60 && leapt > FUZZ_CASES / 5,
        "the corpus was actually hostile ({hostile} cases changed what the \
         halves were handed or tripped a jump counter, {clamped} had a \
         length field clamped to the slot, {leapt} leapt an index); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

/// The named case: the peer rewrites a slot's length field after
/// publishing the index and before the reader gets to it.
#[test]
fn descriptor_ring_clamps_a_length_rewritten_after_publish() {
    let (mut front, mut back) = desc::pair();
    front.push_request(b"request").expect("room");
    // Slot 0 sits behind the 64-byte ring header; its first two bytes are
    // the length.
    front.page().write(|b| b[64..66].copy_from_slice(&0xFFFFu16.to_le_bytes()));
    let req = back.take_request().expect("the index was published");
    assert_eq!(req.len(), SLOT_PAYLOAD, "clamped to the slot, not trusted");
    assert_eq!(&req[..7], b"request");
    back.push_response(b"response").expect("fits");
    front.page().write(|b| b[64..66].copy_from_slice(&(SLOT_PAYLOAD as u16 + 1).to_le_bytes()));
    assert_eq!(front.take_response().expect("published").len(), SLOT_PAYLOAD);
}

// ================================================================ MAC spray

/// Source addresses the sprayer forges: sixteen times what the switch
/// learns behind one port.
const SPRAYED: u64 = 4096;

/// One guest sends `SPRAYED` frames, each from a fresh seeded source
/// MAC, before two other guests open a TCP connection through the same
/// switch. The sprayer fills only its own port's share of the MAC
/// table, so the two are learned: the transfer completes byte-perfect
/// and none of their unicast frames floods to the sprayer. Returns what
/// the receiver got.
fn transfer_beside_a_mac_spray(backend: Backend, seed: u64) -> Vec<u8> {
    const BYTES: usize = 32 * 1024;
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    let dom0 = DriverDomain::new(xs.clone());
    let driver = dom0.stats_handle();
    hv.create_domain("dom0", 512, Box::new(dom0));

    let (front, mut nh) =
        backend.net(xs.clone(), "spray", Mac::local(0x66).0, CopyDiscipline::ZeroCopy);
    let mut rng = Rng::for_stream(seed, "mac-spray");
    let sprayed = Arc::new(Mutex::new(0));
    let leaked = Arc::new(Mutex::new(0));
    let (sprayed_w, leaked_w) = (Arc::clone(&sprayed), Arc::clone(&leaked));
    let mut sprayer = UnikernelGuest::new(move |_env, rt| {
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(1)).await;
            let mut sent = 0;
            while sent < SPRAYED {
                // Batches that fit the TX backlog, each drained in turn.
                for _ in 0..SPRAYED.min(sent + 200) - sent {
                    let mut frame = vec![0x02, 0, 0, 0, 0, 0xEE]; // absent peer
                    let forged = rng.gen_range(0..1u64 << 40).to_be_bytes();
                    frame.push(0x06); // locally administered, unicast
                    frame.extend_from_slice(&forged[3..]);
                    frame.extend_from_slice(&[0x88, 0xB5]); // local experimental
                    frame.resize(80, 0xA5);
                    nh.tx.send(PktBuf::from_vec(frame)).unwrap();
                }
                sent = SPRAYED.min(sent + 200);
                while nh.stats().tx_frames < sent {
                    rt2.sleep(Dur::micros(200)).await;
                }
            }
            *sprayed_w.lock() = sent;
            // Then it listens for frames meant for someone else.
            while let Ok(frame) = nh.rx.recv().await {
                if frame[..6] != Mac::BROADCAST.0 && frame[..6] != nh.mac {
                    *leaked_w.lock() += 1;
                }
            }
            0
        })
    });
    sprayer.add_device(front);
    hv.create_domain("sprayer", 64, Box::new(sprayer));

    let received: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&received);
    let (front_s, nh_s) =
        backend.net(xs.clone(), "srv", Mac::local(80).0, CopyDiscipline::ZeroCopy);
    let mut server = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(SERVER_IP));
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(5001).await.expect("listen");
            let mut stream = listener.accept().await.expect("accepted");
            *out.lock() = Some(stream.read_to_end().await);
            0
        })
    });
    server.add_device(front_s);
    let srv = hv.create_domain("server", 128, Box::new(server));

    let (front_c, nh_c) =
        backend.net(xs.clone(), "cli", Mac::local(99).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(50)).await;
            let stream = stack.tcp_connect(SERVER_IP, 5001).await.expect("connected");
            stream.write(&pattern(BYTES));
            stream.close();
            loop {
                rt2.sleep(Dur::secs(60)).await;
            }
        })
    });
    client.add_device(front_c);
    hv.create_domain("client", 128, Box::new(client));

    hv.run_until(Time::ZERO + Dur::millis(45));
    assert_eq!(
        *sprayed.lock(),
        SPRAYED,
        "[{backend}] the spray went out before the transfer began; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    hv.run_until(Time::ZERO + Dur::secs(5));
    assert_eq!(hv.exit_code(srv), Some(0), "[{backend}] the transfer ended");
    assert!(driver.lock().frames_switched >= SPRAYED, "[{backend}]");
    assert_eq!(
        *leaked.lock(),
        0,
        "[{backend}] the two were learned, so their frames did not flood"
    );
    let got = received.lock().take().expect("receiver reported");
    assert_eq!(
        got,
        pattern(BYTES),
        "[{backend}] byte-perfect beside the spray; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    got
}

#[test]
fn a_mac_spraying_guest_cannot_stop_two_others_talking() {
    let _guard = adversarial_lock().lock();
    let seed = test_seed();
    for backend in Backend::ALL {
        transfer_beside_a_mac_spray(backend, seed);
    }
}
