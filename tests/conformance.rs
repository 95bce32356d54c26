//! Cross-backend differential conformance suite: the same appliance
//! workloads run over both ring ABIs — the Xen-style descriptor rings and
//! the virtio split virtqueues, the two transports under the one set of
//! frontends the [`Backend`] factory hands out — and every
//! application-level transcript must come out byte-identical.
//!
//! The transport is the experiment's only variable: seeds, payloads,
//! stacks, netem schedules and disk-fault draws are all held fixed, so a
//! single differing byte in a transcript localises a bug to one of the
//! two transports (or to state the transport leaked into the data path).
//! Four workloads cover the surfaces the transports touch:
//!
//! * an HTTP session against the blk-backed web appliance (net + blk,
//!   request/response framing, B-tree storage), with the ≤1-copy audit
//!   asserted per backend;
//! * a seeded DNS query storm over UDP (small-frame fan-out);
//! * the chaos loss × reorder grid (retransmission machinery under a
//!   seeded hostile link);
//! * the SMP iperf pairing (multi-queue RSS path, one queue pair per
//!   vCPU on both ABIs).
//!
//! Plus the switch's two forwarding paths: a TCP transfer and a UDP echo
//! with and without a conditioner that impairs nothing must deliver the
//! same bytes at the same virtual instants with the same counters.
//!
//! Plus the doorbell-suppression regression pin: a 1000-frame TX burst
//! must cost O(bursts) data-plane notifications on both ABIs, not
//! O(frames).
//!
//! `scripts/verify.sh --conformance` runs this file under ten fixed
//! seeds and double-runs one seed per backend, diffing the emitted
//! transcripts byte-for-byte.

use std::sync::{Arc, OnceLock};

use mirage::cstruct::{copy_counters, reset_copy_counters, PktBuf};
use mirage::devices::netfront::{CopyDiscipline, NetifStats};
use mirage::devices::{Backend, DriverDomain, NetDriver, NetHandle, Netem, NetemConfig, Xenstore};
use mirage::dns::{DnsName, DnsServer, Message, RType, ServerConfig, Zone};
use mirage::http::{HandlerFuture, HttpConnection, HttpServer, Request, Response, Router};
use mirage::hypervisor::{Dur, Hypervisor, RunOutcome, Time};
use mirage::net::{tcp, Ipv4Addr, Mac, Stack, StackConfig};
use mirage::runtime::UnikernelGuest;
use mirage::storage::{BlkDevice, BlockLog, Tree};
use mirage_testkit::rng::{fnv1a, Rng};
use mirage_testkit::sync::Mutex;
use mirage_testkit::test_seed;

/// The sims are heavyweight and the copy counters are process-global;
/// conformance tests take this lock so runs never interleave.
fn conformance_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 31 + 7) & 0xFF) as u8).collect()
}

/// Asserts the two per-backend transcripts are byte-identical and names
/// the first differing line when they are not.
fn assert_transcripts_match(workload: &str, seed: u64, xen: &str, virtio: &str) {
    if xen == virtio {
        return;
    }
    for (i, (a, b)) in xen.lines().zip(virtio.lines()).enumerate() {
        assert_eq!(
            a, b,
            "[{workload}] transcripts diverge at line {i} (xen vs virtio); \
             reproduce with MIRAGE_TEST_SEED={seed}"
        );
    }
    panic!(
        "[{workload}] transcripts differ in length: xen {} vs virtio {} lines; \
         reproduce with MIRAGE_TEST_SEED={seed}",
        xen.lines().count(),
        virtio.lines().count()
    );
}

// ======================================================= HTTP + blk session

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 80);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 99);

/// One seeded httperf-style session against the blk-backed web appliance
/// over `backend`. Returns the application transcript (statuses, bodies,
/// copy counters) and the copied-bytes-per-delivered-HTTP-byte ratio.
fn http_session(backend: Backend, seed: u64) -> (String, f64) {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    let (netf, nh) = backend.net(xs.clone(), "web0", Mac::local(80).0, CopyDiscipline::ZeroCopy);
    let (blkf, bh) = backend.blk(xs.clone(), "vda", 1 << 16);
    let mut appliance = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh, StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let disk = BlkDevice::new(&rt2, bh);
            let tree = Tree::new(BlockLog::new(disk, 0));
            let tree_post = tree.clone();
            let tree_get = tree.clone();
            let router = Router::new()
                .post("/tweet", move |req: Request| -> HandlerFuture {
                    let tree = tree_post.clone();
                    Box::pin(async move {
                        let (_, query) = req.split_query();
                        let user = query.unwrap_or("anon").to_owned();
                        let seq = tree.scan().await.map(|v| v.len()).unwrap_or(0);
                        let key = format!("{seq:08}:{user}");
                        match tree.set(key.as_bytes(), &req.body).await {
                            Ok(()) => Response::status(201),
                            Err(_) => Response::status(500),
                        }
                    })
                })
                .get("/timeline", move |_req: Request| -> HandlerFuture {
                    let tree = tree_get.clone();
                    Box::pin(async move {
                        match tree.scan().await {
                            Ok(entries) => {
                                let mut body = String::new();
                                for (k, v) in entries.iter().rev() {
                                    body.push_str(&format!(
                                        "{}: {}\n",
                                        String::from_utf8_lossy(k),
                                        String::from_utf8_lossy(v)
                                    ));
                                }
                                Response::ok("text/plain", body.into_bytes())
                            }
                            Err(_) => Response::status(500),
                        }
                    })
                });
            let listener = stack.tcp_listen(80).await.expect("port 80");
            HttpServer::new(Router::from(router)).serve(rt2, listener).await
        })
    });
    appliance.add_device(netf);
    appliance.add_device(blkf);
    hv.create_domain("web-appliance", 64, Box::new(appliance));

    // Client: seeded POSTs, then timeline GETs; every byte it sees goes
    // into the transcript.
    let out: Arc<Mutex<Option<(String, u64)>>> = Arc::new(Mutex::new(None));
    let out_w = Arc::clone(&out);
    let (front_c, nh_c) =
        backend.net(xs.clone(), "perf", Mac::local(99).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut rng = Rng::for_stream(seed, "conformance-http");
            let mut transcript = String::new();
            let mut delivered = 0u64;
            let mut conn = HttpConnection::open(&stack, SERVER_IP, 80).await.unwrap();
            for i in 0..5 {
                let user = format!("user{}", rng.gen_range(0..100));
                let body: Vec<u8> = (0..rng.gen_range(8..64))
                    .map(|_| rng.gen_range(32..127) as u8)
                    .collect();
                let resp = conn
                    .request(&Request::post(format!("/tweet?{user}"), body.clone()))
                    .await
                    .unwrap();
                // The POST body is application payload too: it is parsed
                // (gathered) exactly once on the server side.
                delivered += body.len() as u64 + resp.body.len() as u64;
                transcript.push_str(&format!(
                    "post {i} {user} {} -> {}\n",
                    fnv1a(&body),
                    resp.status
                ));
            }
            for i in 0..4 {
                let resp = conn.request(&Request::get("/timeline")).await.unwrap();
                delivered += resp.body.len() as u64;
                transcript.push_str(&format!(
                    "get {i} -> {} {} bytes {:016x}\n",
                    resp.status,
                    resp.body.len(),
                    fnv1a(&resp.body)
                ));
            }
            conn.close().await;
            *out_w.lock() = Some((transcript, delivered));
            0
        })
    });
    client.add_device(front_c);
    let cdom = hv.create_domain("httperf", 32, Box::new(client));

    reset_copy_counters();
    hv.run_until(Time::ZERO + Dur::secs(30));
    assert_eq!(
        hv.exit_code(cdom),
        Some(0),
        "[http/{backend}] session completed; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let (mut transcript, delivered) = out.lock().take().expect("client reported");
    let counters = copy_counters();
    transcript.push_str(&format!(
        "copies {} copy_bytes {} serializes {}\n",
        counters.copies, counters.copy_bytes, counters.serializes
    ));
    (transcript, counters.copy_bytes as f64 / delivered.max(1) as f64)
}

/// Same HTTP session + storage workload over both ABIs: transcripts are
/// byte-identical and the zero-copy discipline holds on each.
#[test]
fn http_session_transcripts_are_byte_identical_across_backends() {
    let _guard = conformance_lock().lock();
    let seed = test_seed();
    let (xen, xen_per_byte) = http_session(Backend::XenRing, seed);
    let (vio, vio_per_byte) = http_session(Backend::Virtio, seed);
    assert_transcripts_match("http", seed, &xen, &vio);
    for (backend, per_byte) in [("xen", xen_per_byte), ("virtio", vio_per_byte)] {
        assert!(
            per_byte <= 1.0 + 1e-9,
            "[{backend}] at most one software copy per delivered HTTP byte \
             (got {per_byte:.3}); reproduce with MIRAGE_TEST_SEED={seed}"
        );
    }
}

// ======================================================== DNS query storm

/// A seeded burst of DNS queries against a zone-serving appliance over
/// `backend`; the transcript is every response, byte-hashed in order.
fn dns_storm(backend: Backend, seed: u64) -> String {
    const QUERIES: usize = 48;
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    let (front_s, nh_s) =
        backend.net(xs.clone(), "dns0", Mac::local(53).0, CopyDiscipline::ZeroCopy);
    let mut appliance = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let zone = Zone::synthesize("conf.example", 64);
            let server = DnsServer::new(zone, ServerConfig::default());
            let sock = stack.udp_bind(53).await.expect("port 53");
            server.serve_udp(rt2, sock).await
        })
    });
    appliance.add_device(front_s);
    hv.create_domain("dns-appliance", 32, Box::new(appliance));

    let out: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let out_w = Arc::clone(&out);
    let (front_c, nh_c) =
        backend.net(xs.clone(), "digger", Mac::local(9).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut rng = Rng::for_stream(seed, "conformance-dns");
            let mut sock = stack.udp_bind(40000).await.unwrap();
            let mut transcript = String::new();
            for id in 0..QUERIES as u16 {
                // Mostly real names, some misses, a rotating rtype.
                let host = rng.gen_range(0..80);
                let rtype = if rng.gen_range(0..4) == 0 { RType::Ns } else { RType::A };
                let name = DnsName::parse(&format!("host{host}.conf.example")).unwrap();
                let q = Message::query(id, name, rtype);
                sock.send_to(SERVER_IP, 53, q.encode());
                let (_, _, wire) = sock.recv_from().await.expect("a response");
                let r = Message::parse(&wire).expect("well-formed response");
                transcript.push_str(&format!(
                    "q{id} host{host} {rtype:?} -> rcode={:?} answers={} wire={:016x}\n",
                    r.rcode,
                    r.answers.len(),
                    fnv1a(&wire)
                ));
            }
            *out_w.lock() = Some(transcript);
            0
        })
    });
    client.add_device(front_c);
    let cdom = hv.create_domain("digger", 32, Box::new(client));

    hv.run_until(Time::ZERO + Dur::secs(20));
    assert_eq!(
        hv.exit_code(cdom),
        Some(0),
        "[dns/{backend}] storm completed; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let transcript = out.lock().take().expect("client reported");
    transcript
}

#[test]
fn dns_query_storm_transcripts_are_byte_identical_across_backends() {
    let _guard = conformance_lock().lock();
    let seed = test_seed();
    let xen = dns_storm(Backend::XenRing, seed);
    let vio = dns_storm(Backend::Virtio, seed);
    assert!(
        xen.lines().count() == 48,
        "every query was answered; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_transcripts_match("dns", seed, &xen, &vio);
}

// ================================================= chaos loss × reorder

const TX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// One lossy/reordered bulk transfer over `backend`, seeded from
/// `(seed, cell)`. Returns the application transcript: payload digest,
/// exactly-once accounting, netem schedule counters and the sender's
/// retransmission machinery stats.
fn lossy_transfer(backend: Backend, seed: u64, cell: &'static str, cfg: NetemConfig) -> String {
    const BYTES: usize = 48 * 1024;
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(400_000_000);

    let mut dom0 = DriverDomain::new(xs.clone());
    let netem = Netem::from_seed(cfg, seed, cell);
    let nstats = netem.stats_handle();
    dom0.set_netem(netem);
    hv.create_domain("dom0", 512, Box::new(dom0));

    let tcp_cfg = tcp::TcpConfig::builder()
        .recv_buf(64 * 1024)
        .rto_max(Dur::secs(2))
        .build()
        .expect("valid tcp config");
    let rx_cfg = StackConfig::builder(RX_IP).tcp(tcp_cfg.clone()).build().unwrap();
    let tx_cfg = StackConfig::builder(TX_IP).tcp(tcp_cfg).build().unwrap();
    let payload = Arc::new(pattern(BYTES));

    let rx_result: Arc<Mutex<Option<(Vec<u8>, u64)>>> = Arc::new(Mutex::new(None));
    let rx_out = Arc::clone(&rx_result);
    let (front_rx, nh_rx) = backend.net(xs.clone(), "rx", Mac::local(2).0, CopyDiscipline::ZeroCopy);
    let mut rx_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_rx, rx_cfg);
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(5001).await.unwrap();
            let mut stream = listener.accept().await.unwrap();
            let mut got: Vec<u8> = Vec::new();
            while got.len() < BYTES {
                match stream.read().await {
                    Some(chunk) => got.extend_from_slice(&chunk),
                    None => break,
                }
            }
            stream.write(b"K");
            let extra = stream.read_to_end().await.len() as u64;
            *rx_out.lock() = Some((got, extra));
            // Park: a dead domain would take its retransmissions with it.
            loop {
                rt2.sleep(Dur::secs(60)).await;
            }
        })
    });
    rx_guest.add_device(front_rx);
    hv.create_domain("conf-rx", 128, Box::new(rx_guest));

    let tx_result: Arc<Mutex<Option<tcp::TcpStats>>> = Arc::new(Mutex::new(None));
    let tx_out = Arc::clone(&tx_result);
    let tx_payload = Arc::clone(&payload);
    let (front_tx, nh_tx) = backend.net(xs.clone(), "tx", Mac::local(1).0, CopyDiscipline::ZeroCopy);
    let mut tx_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_tx, tx_cfg);
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut stream = loop {
                match stack.tcp_connect(RX_IP, 5001).await {
                    Ok(s) => break s,
                    Err(_) => rt2.sleep(Dur::millis(50)).await,
                }
            };
            let mut sent = 0usize;
            while sent < tx_payload.len() {
                let n = (tx_payload.len() - sent).min(16 * 1024);
                stream.write(&tx_payload[sent..sent + n]);
                sent += n;
                rt2.yield_now().await;
            }
            let mut receipt: Vec<u8> = Vec::new();
            while receipt.is_empty() {
                match stream.read().await {
                    Some(chunk) => receipt.extend_from_slice(&chunk),
                    None => break,
                }
            }
            let stats = stream.stats().await.expect("stats before close");
            *tx_out.lock() = Some(stats);
            stream.close();
            loop {
                rt2.sleep(Dur::secs(60)).await;
            }
        })
    });
    tx_guest.add_device(front_tx);
    hv.create_domain("conf-tx", 128, Box::new(tx_guest));

    let deadline = Time::ZERO + Dur::secs(300);
    loop {
        let outcome = hv.run_until(hv.now() + Dur::millis(100));
        if rx_result.lock().is_some() && tx_result.lock().is_some() {
            break;
        }
        assert!(
            outcome == RunOutcome::TimeLimit && hv.now() < deadline,
            "[{cell}/{backend}] transfer stalled at {:?}; \
             reproduce with MIRAGE_TEST_SEED={seed}",
            hv.now(),
        );
    }

    let (received, extra) = rx_result.lock().take().expect("receiver reported");
    let sender = tx_result.lock().take().expect("sender reported");
    let netem = nstats.lock().clone();
    assert_eq!(
        received,
        *payload,
        "[{cell}/{backend}] payload delivered exactly once, byte-perfect; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    format!(
        "{cell} bytes={} digest={:016x} extra={extra} \
         segs_out={} fast={} rto={} netem_dropped={} netem_reordered={} netem_duplicated={}\n",
        received.len(),
        fnv1a(&received),
        sender.segs_out,
        sender.fast_retransmits,
        sender.rto_retransmits,
        netem.dropped,
        netem.reordered,
        netem.duplicated,
    )
}

/// The loss × reorder grid over both ABIs. The payload digest and the
/// exactly-once accounting must agree byte-for-byte; the retransmission
/// and netem schedule counters ride in the transcript so any divergence
/// in the recovery machinery is also caught.
#[test]
fn chaos_loss_reorder_grid_matches_across_backends() {
    let _guard = conformance_lock().lock();
    let seed = test_seed();
    // (cell, drop, reorder)
    let grid: &[(&'static str, f64, f64)] = &[
        ("conf-clean", 0.0, 0.0),
        ("conf-loss05", 0.05, 0.0),
        ("conf-loss-reorder", 0.05, 0.10),
    ];
    for &(cell, drop, reorder) in grid {
        let cfg = NetemConfig {
            drop,
            reorder,
            reorder_hold: Dur::micros(500),
            ..NetemConfig::default()
        };
        let xen = lossy_transfer(Backend::XenRing, seed, cell, cfg.clone());
        let vio = lossy_transfer(Backend::Virtio, seed, cell, cfg);
        assert_transcripts_match(cell, seed, &xen, &vio);
        if drop > 0.0 {
            assert!(
                xen.contains("netem_dropped=0") == false,
                "[{cell}] the loss schedule actually fired: {xen}; \
                 reproduce with MIRAGE_TEST_SEED={seed}"
            );
        }
    }
}

// ============================================================ SMP iperf

/// The multi-queue RSS path: the SMP iperf pairing from the bench
/// harness, one queue pair per vCPU on both ABIs. Virtual-time goodput
/// legitimately differs (per-queue doorbells vs a shared ring pass), so
/// the byte-identical claim is on delivery, and goodput is gated to the
/// same ballpark.
#[test]
fn smp_iperf_delivers_identical_bytes_on_both_backends() {
    let _guard = conformance_lock().lock();
    let seed = test_seed();
    use mirage::baseline::netperf::TcpEndpoint;
    let xen =
        mirage_bench::netsim::iperf_smp_on(Backend::XenRing, TcpEndpoint::Mirage, TcpEndpoint::Mirage, 4, 8, 100_000);
    let vio =
        mirage_bench::netsim::iperf_smp_on(Backend::Virtio, TcpEndpoint::Mirage, TcpEndpoint::Mirage, 4, 8, 100_000);
    assert_eq!(
        xen.bytes, vio.bytes,
        "every flow byte delivered on both ABIs; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(xen.bytes, 800_000);
    let ratio = vio.mbps / xen.mbps;
    assert!(
        (0.5..2.0).contains(&ratio),
        "SMP goodput in the same ballpark: xen {:.0} vs virtio {:.0} Mb/s; \
         reproduce with MIRAGE_TEST_SEED={seed}",
        xen.mbps,
        vio.mbps
    );
}

// ====================================== the switch's two forwarding paths

const ECHO_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);

/// A NIC for a stack, plus the handle its counters stay readable
/// through: the stack consumes the handle it is given, so it gets an
/// unattached twin's carrying the real NIC's channels.
fn observed_nic(
    backend: Backend,
    xs: &Xenstore,
    name: &str,
    mac: [u8; 6],
) -> (Box<dyn NetDriver>, NetHandle, NetHandle) {
    let (front, mut real) = backend.net(xs.clone(), name, mac, CopyDiscipline::ZeroCopy);
    let (_unattached, mut shell) =
        backend.net(xs.clone(), format!("{name}-shell"), mac, CopyDiscipline::ZeroCopy);
    std::mem::swap(&mut real.tx, &mut shell.tx);
    std::mem::swap(&mut real.rx, &mut shell.rx);
    (front, shell, real)
}

/// A TCP transfer and then a UDP echo between two guests over `backend`,
/// with or without a conditioner that impairs nothing. The switch copies
/// a guest's frame straight into the peer's RX buffer only with no
/// conditioner attached, so the two runs take its two forwarding paths.
/// Returns what was delivered, when (virtual time) and every counter.
fn two_guest_exchange(backend: Backend, seed: u64, conditioned: bool) -> String {
    const BYTES: usize = 96 * 1024;
    const DATAGRAMS: usize = 24;
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    let mut dom0 = DriverDomain::new(xs.clone());
    if conditioned {
        dom0.set_netem(Netem::from_seed(NetemConfig::default(), seed, "perfect-wire"));
    }
    let driver = dom0.stats_handle();
    hv.create_domain("dom0", 512, Box::new(dom0));
    let mut rng = Rng::for_stream(seed, "two-paths");
    let sizes: Vec<usize> = (0..DATAGRAMS).map(|_| 1 + rng.gen_index(1400)).collect();
    let payload = Arc::new(pattern(BYTES));

    type Report = Arc<Mutex<Option<(u64, usize, Time)>>>;
    let tcp_done: Report = Arc::new(Mutex::new(None));
    let udp_done: Report = Arc::new(Mutex::new(None));

    let (front_e, nh_e, probe_e) = observed_nic(backend, &xs, "echo", Mac::local(3).0);
    let tcp_out = Arc::clone(&tcp_done);
    let mut echo = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_e, StackConfig::static_ip(ECHO_IP));
        let (rt2, rt3, udp) = (rt.clone(), rt.clone(), stack.clone());
        rt.spawn(async move {
            let mut sock = udp.udp_bind(7).await.expect("port 7");
            while let Ok((src, sport, datagram)) = sock.recv_from().await {
                sock.send_to(src, sport, datagram);
            }
            0
        });
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(5001).await.unwrap();
            let mut stream = listener.accept().await.unwrap();
            let mut got: Vec<u8> = Vec::new();
            while got.len() < BYTES {
                match stream.read().await {
                    Some(chunk) => got.extend_from_slice(&chunk),
                    None => break,
                }
            }
            stream.write(b"K");
            *tcp_out.lock() = Some((fnv1a(&got), got.len(), rt2.now()));
            loop {
                rt3.sleep(Dur::secs(60)).await;
            }
        })
    });
    echo.add_device(front_e);
    hv.create_domain("echo", 128, Box::new(echo));

    let (front_p, nh_p, probe_p) = observed_nic(backend, &xs, "peer", Mac::local(4).0);
    let udp_out = Arc::clone(&udp_done);
    let to_echo = sizes.clone();
    let mut peer = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_p, StackConfig::static_ip(PEER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut stream = stack.tcp_connect(ECHO_IP, 5001).await.expect("connected");
            for chunk in payload.chunks(16 * 1024) {
                stream.write(chunk);
                rt2.yield_now().await;
            }
            let receipt = stream.read().await;
            assert_eq!(receipt.as_deref(), Some(&b"K"[..]));
            stream.close();
            let mut sock = stack.udp_bind(40_000).await.expect("bind");
            let mut echoed = Vec::new();
            for &len in &to_echo {
                sock.send_to(ECHO_IP, 7, pattern(len));
                let (_, _, datagram) = sock.recv_from().await.expect("echoed");
                echoed.extend_from_slice(&datagram);
            }
            *udp_out.lock() = Some((fnv1a(&echoed), echoed.len(), rt2.now()));
            loop {
                rt2.sleep(Dur::secs(60)).await;
            }
        })
    });
    peer.add_device(front_p);
    hv.create_domain("peer", 128, Box::new(peer));

    let deadline = Time::ZERO + Dur::secs(30);
    while tcp_done.lock().is_none() || udp_done.lock().is_none() {
        assert!(
            hv.now() < deadline,
            "[{backend}] exchange stalled; reproduce with MIRAGE_TEST_SEED={seed}"
        );
        hv.run_until(hv.now() + Dur::millis(10));
    }
    let tcp = tcp_done.lock().take().expect("transfer reported");
    let udp = udp_done.lock().take().expect("echo reported");
    assert_eq!((tcp.0, tcp.1), (fnv1a(&pattern(BYTES)), BYTES), "[{backend}] byte-perfect");
    let sent: Vec<u8> = sizes.iter().flat_map(|&len| pattern(len)).collect();
    assert_eq!((udp.0, udp.1), (fnv1a(&sent), sent.len()), "[{backend}] byte-perfect");
    let driver = *driver.lock();
    assert!(driver.frames_switched > 0, "[{backend}] the switch carried the exchange");
    format!(
        "tcp digest={:016x} bytes={} at={:?}\nudp digest={:016x} bytes={} at={:?}\n\
         driver={driver:?}\necho={:?}\npeer={:?}\n",
        tcp.0,
        tcp.1,
        tcp.2,
        udp.0,
        udp.1,
        udp.2,
        probe_e.stats(),
        probe_p.stats(),
    )
}

/// The switch forwards a guest's frame by one copy into the peer's RX
/// buffer when nothing is conditioned or queued, and through its queue
/// otherwise. Which path a frame took must not show: the same bytes
/// arrive at the same virtual instants, with the same driver and
/// interface counters, on both ABIs.
#[test]
fn the_direct_and_queued_paths_are_indistinguishable_on_both_backends() {
    let _guard = conformance_lock().lock();
    let seed = test_seed();
    for backend in Backend::ALL {
        let direct = two_guest_exchange(backend, seed, false);
        let queued = two_guest_exchange(backend, seed, true);
        assert_transcripts_match(&format!("two paths/{backend}"), seed, &direct, &queued);
    }
}

// ============================================= doorbell suppression pin

/// Sends a batched 1000-frame TX burst and reports (tx_frames,
/// doorbells) as seen by the interface counters.
fn tx_burst_doorbells(backend: Backend) -> NetifStats {
    const FRAMES: u64 = 1000;
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    let out: Arc<Mutex<Option<NetifStats>>> = Arc::new(Mutex::new(None));
    let out_w = Arc::clone(&out);
    let (front, nh) = backend.net(xs.clone(), "burst", Mac::local(7).0, CopyDiscipline::ZeroCopy);
    let mut guest = UnikernelGuest::new(move |_env, rt| {
        let rt2 = rt.clone();
        rt.spawn(async move {
            // Give the handshake time to finish, then burst 1000 frames
            // into the driver in batches that fit the TX backlog
            // (TX_BACKLOG_CAP = 256); each batch is queued in one go.
            rt2.sleep(Dur::millis(5)).await;
            let mut queued = 0u64;
            while queued < FRAMES {
                let batch = (FRAMES - queued).min(200);
                for i in queued..queued + batch {
                    let mut f = Vec::with_capacity(80);
                    f.extend_from_slice(&[0x02, 0, 0, 0, 0, 0xEE]); // absent peer
                    f.extend_from_slice(&Mac::local(7).0);
                    f.extend_from_slice(&[0x08, 0x00]);
                    f.extend_from_slice(&i.to_be_bytes());
                    f.resize(80, 0xA5);
                    nh.tx.send(PktBuf::from_vec(f)).unwrap();
                }
                queued += batch;
                while nh.stats().tx_frames < queued {
                    rt2.sleep(Dur::micros(200)).await;
                }
            }
            *out_w.lock() = Some(nh.stats());
            0
        })
    });
    guest.add_device(front);
    let gdom = hv.create_domain("burster", 64, Box::new(guest));
    hv.run_until(Time::ZERO + Dur::secs(10));
    assert_eq!(hv.exit_code(gdom), Some(0), "burst flushed");
    let stats = out.lock().take().expect("guest reported");
    stats
}

/// Satellite regression pin: event-index suppression makes the doorbell
/// count scale with service *bursts*, not frames — a 1000-frame burst
/// must ring the backend far fewer than 1000 times on either ABI. The
/// absolute pin (≤128) is deliberately loose enough for scheduler
/// wobble and tight enough that per-frame notification (1000) can never
/// sneak back in.
#[test]
fn doorbells_scale_with_bursts_not_frames_on_both_backends() {
    let _guard = conformance_lock().lock();
    let seed = test_seed();
    for backend in Backend::ALL {
        let stats = tx_burst_doorbells(backend);
        assert_eq!(
            stats.tx_frames, 1000,
            "[{backend}] the whole burst went out; reproduce with MIRAGE_TEST_SEED={seed}"
        );
        assert!(
            stats.doorbells >= 1,
            "[{backend}] at least one doorbell rang; reproduce with MIRAGE_TEST_SEED={seed}"
        );
        assert!(
            stats.doorbells <= 128,
            "[{backend}] doorbell regression: {} notifications for 1000 frames \
             (O(frames), not O(bursts)); reproduce with MIRAGE_TEST_SEED={seed}",
            stats.doorbells
        );
    }
}

// ========================================================== determinism

/// Same seed, same backend ⇒ byte-identical transcripts; and the
/// workloads actually depend on the seed.
#[test]
fn same_seed_double_runs_are_byte_identical_per_backend() {
    let _guard = conformance_lock().lock();
    let seed = test_seed();
    for backend in Backend::ALL {
        let first = dns_storm(backend, seed);
        let second = dns_storm(backend, seed);
        assert_eq!(
            first, second,
            "[{backend}] two same-seed runs diverged; \
             reproduce with MIRAGE_TEST_SEED={seed}"
        );
        let other = dns_storm(backend, seed ^ 0xDEAD_BEEF);
        assert_ne!(
            first, other,
            "[{backend}] different seeds drive different storms; \
             reproduce with MIRAGE_TEST_SEED={seed}"
        );
    }
}
