//! Chaos suite: seeded fault injection against live appliances.
//!
//! Every test here runs a full simulated deployment — driver domain,
//! guests, real TCP/UDP stacks — with a [`Netem`] link conditioner, a
//! [`DiskFaultPlan`], or a domain kill driving faults from a xoshiro PRNG
//! forked from `MIRAGE_TEST_SEED`. Every assertion message reprints the
//! seed, so any failure line is a one-environment-variable reproduction
//! recipe, and `seeded_failure_reprints_a_seed_that_reproduces_it_exactly`
//! is the regression test that the recipe actually works.
//!
//! The tests share process-global state (the zero-copy counters in
//! `mirage::cstruct`), so they serialise on [`chaos_lock`].

use std::sync::{Arc, OnceLock};

use mirage::cstruct::{copy_counters, reset_copy_counters};
use mirage::devices::netfront::CopyDiscipline;
use mirage::devices::{
    Backend, BlkOp, BlkRequest, DiskFaultPlan, DiskProfile, DriverDomain, DriverStats, Netem,
    NetemConfig, NetemStats, NetProfile, Tap, Xenstore,
};
use mirage::dns::{DnsName, DnsServer, Message, RData, RType, Rcode, ServerConfig, Zone};
use mirage::http::{HandlerFuture, HttpConnection, HttpServer, Request, Response, Router};
use mirage::hypervisor::{Dur, Hypervisor, RunOutcome, Time, KILLED_EXIT_CODE};
use mirage::net::{tcp, Ipv4Addr, Mac, PktBuf, Stack, StackConfig};
use mirage::runtime::channel::channel;
use mirage::runtime::UnikernelGuest;
use mirage_testkit::rng::Rng;
use mirage_testkit::sync::Mutex;
use mirage_testkit::{prop, test_seed};

/// The zero-copy counters are process-wide atomics and the sims are
/// heavyweight; chaos tests take this lock so they never interleave.
fn chaos_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Deterministic payload so corruption or duplication shows up as a
/// byte-level mismatch, not just a length error.
fn pattern(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(31).wrapping_add(7) & 0xFF) as u8)
        .collect()
}

// ------------------------------------------------------------------ TCP

const TX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Everything one conditioned bulk-transfer run produces.
struct LossyTcpReport {
    /// Bytes the receiver accepted before sending its receipt.
    received: Vec<u8>,
    /// Bytes delivered beyond the expected payload (duplicate delivery).
    extra_bytes: u64,
    /// Sender-side connection counters, snapshotted before close.
    sender: tcp::TcpStats,
    /// The conditioner's fault counters and decision schedule.
    netem: NetemStats,
    /// Switch-level counters (drop reasons, blk faults).
    driver: DriverStats,
}

/// Runs one `bytes`-long TCP bulk transfer between two unikernels through
/// a switch conditioned by `cfg`, seeded from `(seed, cell)`.
fn run_lossy_tcp(seed: u64, cell: &'static str, cfg: NetemConfig, bytes: usize) -> LossyTcpReport {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(400_000_000);

    let mut dom0 = DriverDomain::new(xs.clone());
    let netem = Netem::from_seed(cfg, seed, cell);
    let nstats = netem.stats_handle();
    dom0.set_netem(netem);
    let dstats = dom0.stats_handle();
    hv.create_domain("dom0", 512, Box::new(dom0));

    // Bound the advertised window so in-flight data respects the switch
    // queueing budget (as the bench harness does), and cap the RTO so a
    // 20%-loss cell backs off on a test-sized timescale instead of
    // production TCP's 60 s ceiling.
    let tcp_cfg = tcp::TcpConfig::builder()
        .recv_buf(64 * 1024)
        .rto_max(Dur::secs(2))
        .build()
        .expect("valid tcp config");
    let rx_cfg = StackConfig::builder(RX_IP)
        .tcp(tcp_cfg.clone())
        .build()
        .expect("valid stack config");
    let tx_cfg = StackConfig::builder(TX_IP)
        .tcp(tcp_cfg)
        .build()
        .expect("valid stack config");

    let payload = Arc::new(pattern(bytes));

    // Receiver: accept, read the payload, send a 1-byte receipt, then
    // count anything delivered beyond the expected length.
    let rx_result: Arc<Mutex<Option<(Vec<u8>, u64)>>> = Arc::new(Mutex::new(None));
    let rx_out = Arc::clone(&rx_result);
    let (front_rx, nh_rx) =
        Backend::XenRing.net(xs.clone(), "rx", Mac::local(2).0, CopyDiscipline::ZeroCopy);
    let mut rx_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_rx, rx_cfg);
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(5001).await.unwrap();
            let mut stream = listener.accept().await.unwrap();
            let mut got: Vec<u8> = Vec::new();
            while got.len() < bytes {
                match stream.read().await {
                    Some(chunk) => got.extend_from_slice(&chunk),
                    None => break,
                }
            }
            stream.write(b"K");
            let extra = stream.read_to_end().await.len() as u64;
            *rx_out.lock() = Some((got, extra));
            // Park instead of exiting: a dead domain takes its stack (and
            // its retransmissions) with it, which would re-lose any frame
            // netem drops during teardown.
            loop {
                rt2.sleep(Dur::secs(60)).await;
            }
        })
    });
    rx_guest.add_device(front_rx);
    hv.create_domain("chaos-rx", 128, Box::new(rx_guest));

    // Sender: connect (retrying through SYN loss), stream the payload,
    // await the receipt, snapshot stats while the connection still exists.
    let tx_result: Arc<Mutex<Option<tcp::TcpStats>>> = Arc::new(Mutex::new(None));
    let tx_out = Arc::clone(&tx_result);
    let tx_payload = Arc::clone(&payload);
    let (front_tx, nh_tx) =
        Backend::XenRing.net(xs.clone(), "tx", Mac::local(1).0, CopyDiscipline::ZeroCopy);
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
            // Park: keep the stack alive so the FIN survives being lost.
            loop {
                rt2.sleep(Dur::secs(60)).await;
            }
        })
    });
    tx_guest.add_device(front_tx);
    hv.create_domain("chaos-tx", 128, Box::new(tx_guest));

    // Run in slices until both sides report (the guests deliberately
    // never exit), bounding total virtual time.
    let deadline = Time::ZERO + Dur::secs(300);
    loop {
        let outcome = hv.run_until(hv.now() + Dur::millis(100));
        let done = rx_result.lock().is_some() && tx_result.lock().is_some();
        if done {
            break;
        }
        assert!(
            outcome == RunOutcome::TimeLimit && hv.now() < deadline,
            "[{cell}] transfer stalled (outcome {outcome:?} at {:?}, netem {:?}, driver {:?}); \
             reproduce with MIRAGE_TEST_SEED={seed}",
            hv.now(),
            nstats.lock().clone(),
            *dstats.lock(),
        );
    }

    let (received, extra_bytes) = rx_result.lock().take().expect("receiver reported");
    let sender = tx_result.lock().take().expect("sender reported");
    let netem = nstats.lock().clone();
    let driver = *dstats.lock();
    LossyTcpReport {
        received,
        extra_bytes,
        sender,
        netem,
        driver,
    }
}

/// The loss × reorder × duplication grid. Every cell must deliver the
/// payload exactly once, and every cell with loss must show the
/// retransmit machinery firing.
#[test]
fn tcp_bulk_transfer_is_exactly_once_across_the_loss_grid() {
    let _guard = chaos_lock().lock();
    let seed = test_seed();

    // (cell, drop, duplicate, corrupt, reorder, bytes)
    let grid: &[(&'static str, f64, f64, f64, f64, usize)] = &[
        ("grid-perfect", 0.0, 0.0, 0.0, 0.0, 64 * 1024),
        ("grid-loss05", 0.05, 0.0, 0.0, 0.0, 96 * 1024),
        ("grid-loss20", 0.20, 0.0, 0.0, 0.0, 96 * 1024),
        ("grid-dup-reorder", 0.05, 0.05, 0.0, 0.10, 96 * 1024),
        ("grid-jitter-corrupt", 0.10, 0.02, 0.02, 0.05, 96 * 1024),
    ];

    for &(cell, drop, duplicate, corrupt, reorder, bytes) in grid {
        let cfg = NetemConfig {
            drop,
            duplicate,
            corrupt,
            reorder,
            reorder_hold: Dur::micros(500),
            delay: if cell == "grid-jitter-corrupt" {
                Dur::micros(200)
            } else {
                Dur::ZERO
            },
            jitter: if cell == "grid-jitter-corrupt" {
                Dur::micros(300)
            } else {
                Dur::ZERO
            },
            partitions: Vec::new(),
        };
        let report = run_lossy_tcp(seed, cell, cfg, bytes);

        let expected = pattern(bytes);
        assert_eq!(
            report.received.len(),
            expected.len(),
            "[{cell}] payload length delivered exactly once; reproduce with MIRAGE_TEST_SEED={seed}"
        );
        assert!(
            report.received == expected,
            "[{cell}] payload bytes intact in order; reproduce with MIRAGE_TEST_SEED={seed}"
        );
        assert_eq!(
            report.extra_bytes, 0,
            "[{cell}] no bytes delivered twice; reproduce with MIRAGE_TEST_SEED={seed}"
        );
        assert!(
            report.netem.offered > 0,
            "[{cell}] the conditioner saw the traffic; reproduce with MIRAGE_TEST_SEED={seed}"
        );
        if drop > 0.0 {
            assert!(
                report.netem.dropped > 0,
                "[{cell}] the conditioner actually dropped frames; reproduce with MIRAGE_TEST_SEED={seed}"
            );
            assert_eq!(
                report.driver.frames_dropped_netem, report.netem.total_lost(),
                "[{cell}] switch counters agree with the conditioner; reproduce with MIRAGE_TEST_SEED={seed}"
            );
            assert!(
                report.sender.total_retransmits() > 0,
                "[{cell}] loss made the retransmit machinery fire \
                 (rto={}, fast={}); reproduce with MIRAGE_TEST_SEED={seed}",
                report.sender.rto_retransmits,
                report.sender.fast_retransmits,
            );
        }
        if duplicate > 0.0 {
            assert!(
                report.netem.duplicated > 0,
                "[{cell}] duplication fired; reproduce with MIRAGE_TEST_SEED={seed}"
            );
        }
        if reorder > 0.0 {
            assert!(
                report.netem.reordered > 0,
                "[{cell}] reordering fired; reproduce with MIRAGE_TEST_SEED={seed}"
            );
        }
    }
}

/// Two runs under one seed must be indistinguishable: same bytes, same
/// TCP counters, same switch counters, and a byte-identical fault
/// schedule.
#[test]
fn same_seed_produces_byte_identical_fault_schedules_and_stats() {
    let _guard = chaos_lock().lock();
    let seed = test_seed();
    let cfg = NetemConfig {
        drop: 0.10,
        duplicate: 0.03,
        reorder: 0.05,
        reorder_hold: Dur::micros(400),
        ..NetemConfig::default()
    };

    let a = run_lossy_tcp(seed, "determinism", cfg.clone(), 64 * 1024);
    let b = run_lossy_tcp(seed, "determinism", cfg, 64 * 1024);

    assert!(
        a.received == b.received,
        "delivered bytes identical across same-seed runs; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(
        a.sender, b.sender,
        "TCP counters identical across same-seed runs; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(
        a.driver, b.driver,
        "switch counters identical across same-seed runs; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(
        a.netem, b.netem,
        "fault schedules byte-identical across same-seed runs; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        !a.netem.schedule.is_empty(),
        "the schedule log actually recorded decisions; reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

/// Reordering alone — 1 ms of independent jitter per frame, nothing
/// dropped — is not loss: the payload arrives exactly once, no
/// retransmission timer fires, and a second run under the same seed is
/// indistinguishable from the first.
#[test]
fn reordering_without_loss_needs_no_rto() {
    let _guard = chaos_lock().lock();
    let seed = test_seed();
    let cfg = NetemConfig {
        jitter: Dur::millis(1),
        ..NetemConfig::default()
    };
    let bytes = 256 * 1024;
    let a = run_lossy_tcp(seed, "reorder-only", cfg.clone(), bytes);
    assert!(
        a.received == pattern(bytes) && a.extra_bytes == 0,
        "payload delivered exactly once; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        a.netem.total_lost() == 0 && a.netem.delayed > 0,
        "frames were jittered, none dropped; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert_eq!(
        a.sender.rto_retransmits, 0,
        "reordering never waited out a timer ({:?}); reproduce with MIRAGE_TEST_SEED={seed}",
        a.sender
    );
    let b = run_lossy_tcp(seed, "reorder-only", cfg, bytes);
    assert!(
        a.received == b.received && a.sender == b.sender && a.netem == b.netem,
        "same seed, same run; reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

// ----------------------------------------------------------------- HTTP

/// HTTP request/response over a 10%-lossy link: the transfer completes
/// and the zero-copy audit stays at ≤ 1 copied byte per delivered body
/// byte — retransmissions re-slice the same refcounted chunks.
#[test]
fn http_completes_over_a_lossy_link_within_the_zero_copy_budget() {
    let _guard = chaos_lock().lock();
    let seed = test_seed();
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 80);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 99);
    const BODY_LEN: usize = 16 * 1024;
    const REQUESTS: usize = 3;

    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(400_000_000);

    let mut dom0 = DriverDomain::new(xs.clone());
    let netem = Netem::from_seed(NetemConfig::lossy(0.10), seed, "http-lossy");
    let nstats = netem.stats_handle();
    dom0.set_netem(netem);
    hv.create_domain("dom0", 512, Box::new(dom0));

    let (front_s, nh_s) =
        Backend::XenRing.net(xs.clone(), "web", Mac::local(80).0, CopyDiscipline::ZeroCopy);
    let mut appliance = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let router = Router::new().get("/data", |_req: Request| -> HandlerFuture {
                Box::pin(async { Response::ok("text/plain", pattern(BODY_LEN)) })
            });
            let listener = stack.tcp_listen(80).await.unwrap();
            HttpServer::new(router).serve(rt2, listener).await
        })
    });
    appliance.add_device(front_s);
    hv.create_domain("web-appliance", 32, Box::new(appliance));

    reset_copy_counters();

    let (front_c, nh_c) =
        Backend::XenRing.net(xs.clone(), "cli", Mac::local(99).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut conn = loop {
                match HttpConnection::open(&stack, SERVER_IP, 80).await {
                    Ok(c) => break c,
                    Err(_) => rt2.sleep(Dur::millis(50)).await,
                }
            };
            let expected = pattern(BODY_LEN);
            for _ in 0..REQUESTS {
                let resp = conn.request(&Request::get("/data")).await.unwrap();
                assert_eq!(resp.status, 200);
                assert!(resp.body == expected, "body survives the lossy link");
            }
            conn.close().await;
            0
        })
    });
    client.add_device(front_c);
    let cdom = hv.create_domain("httperf", 32, Box::new(client));

    hv.run_until(Time::ZERO + Dur::secs(120));
    assert_eq!(
        hv.exit_code(cdom),
        Some(0),
        "HTTP client finished over the lossy link; reproduce with MIRAGE_TEST_SEED={seed}"
    );

    let netem = nstats.lock().clone();
    assert!(
        netem.dropped > 0,
        "the link actually lost frames; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let counters = copy_counters();
    let delivered = (REQUESTS * BODY_LEN) as u64;
    assert!(
        counters.copy_bytes <= delivered,
        "zero-copy audit holds under loss: {} copied for {} delivered body bytes; \
         reproduce with MIRAGE_TEST_SEED={seed}",
        counters.copy_bytes,
        delivered,
    );
}

// ------------------------------------------------------------------ DNS

/// DNS resolution through a bidirectional partition that heals: the
/// resolver keeps retrying into the dead window and succeeds after it.
#[test]
fn dns_resolves_through_a_partition_that_heals() {
    let _guard = chaos_lock().lock();
    let seed = test_seed();
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(400_000_000);

    let mut dom0 = DriverDomain::new(xs.clone());
    let cfg = NetemConfig {
        partitions: vec![(Time::ZERO + Dur::millis(2), Time::ZERO + Dur::millis(60))],
        ..NetemConfig::default()
    };
    let netem = Netem::from_seed(cfg, seed, "dns-partition");
    let nstats = netem.stats_handle();
    dom0.set_netem(netem);
    hv.create_domain("dom0", 512, Box::new(dom0));

    let (front_s, nh_s) =
        Backend::XenRing.net(xs.clone(), "dns", Mac::local(53).0, CopyDiscipline::ZeroCopy);
    let mut appliance = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let zone = Zone::synthesize("example.org", 100);
            let server = DnsServer::new(zone, ServerConfig::default());
            let sock = stack.udp_bind(53).await.unwrap();
            server.serve_udp(rt2, sock).await
        })
    });
    appliance.add_device(front_s);
    hv.create_domain("dns-appliance", 32, Box::new(appliance));

    let attempts_out: Arc<Mutex<u32>> = Arc::new(Mutex::new(0));
    let attempts_in = Arc::clone(&attempts_out);
    let (front_c, nh_c) =
        Backend::XenRing.net(xs.clone(), "cli", Mac::local(9).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut sock = stack.udp_bind(33333).await.unwrap();
            let mut attempts: u32 = 0;
            let reply = 'resolve: loop {
                attempts += 1;
                assert!(attempts <= 500, "resolver retries are bounded");
                let q = Message::query(
                    attempts as u16,
                    DnsName::parse("host7.example.org").unwrap(),
                    RType::A,
                );
                sock.send_to(SERVER_IP, 53, q.encode());
                // Drain replies until the current attempt's answer shows
                // up or the link goes quiet; stale answers to queries that
                // were queued behind the partition are skipped.
                loop {
                    match rt2
                        .timeout(Dur::millis(20), Box::pin(sock.recv_from()))
                        .await
                    {
                        Ok(Ok((_, _, wire))) => {
                            let r = Message::parse(&wire).unwrap();
                            if r.id == attempts as u16 {
                                break 'resolve r;
                            }
                        }
                        _ => break,
                    }
                }
            };
            *attempts_in.lock() = attempts;
            assert_eq!(reply.rcode, Rcode::NoError);
            assert_eq!(reply.answers.len(), 1);
            assert!(matches!(reply.answers[0].rdata, RData::A(_)));
            0
        })
    });
    client.add_device(front_c);
    let cdom = hv.create_domain("resolver", 32, Box::new(client));

    hv.run_until(Time::ZERO + Dur::secs(30));
    assert_eq!(
        hv.exit_code(cdom),
        Some(0),
        "resolver succeeded after the heal; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let attempts = *attempts_out.lock();
    assert!(
        attempts >= 2,
        "the partition forced at least one retry (got {attempts}); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let netem = nstats.lock().clone();
    assert!(
        netem.partitioned > 0,
        "frames were actually swallowed by the partition window; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

// ---------------------------------------------------------------- disk

/// Seeded transient disk faults: every read/write eventually succeeds on
/// retry, data round-trips intact, and the injection counters prove the
/// faults actually fired.
#[test]
fn disk_faults_are_transient_and_survivable() {
    let _guard = chaos_lock().lock();
    let seed = test_seed();

    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(400_000_000);

    let faults = DiskFaultPlan {
        read_error_ppm: 150_000,
        write_error_ppm: 150_000,
        torn_write_ppm: 100_000,
    };
    let mut dom0 = DriverDomain::with_profiles(
        xs.clone(),
        NetProfile::default(),
        DiskProfile::pcie_ssd().with_faults(faults),
    );
    dom0.set_disk_fault_rng(Rng::for_stream(seed, "chaos-disk"));
    let dstats = dom0.stats_handle();
    hv.create_domain("dom0", 512, Box::new(dom0));

    let (front, bh) = Backend::XenRing.blk(xs.clone(), "vda", 1 << 20);
    let mut guest = UnikernelGuest::new(move |_env, rt| {
        rt.spawn(async move {
            let submit = |op, sector, data| {
                let (reply, done) = channel();
                bh.submit
                    .send(BlkRequest {
                        op,
                        sector,
                        count: 8,
                        data,
                        reply,
                    })
                    .unwrap();
                done
            };
            for block in 0..16u64 {
                let sector = block * 8;
                let payload: Vec<u8> = pattern(4096)
                    .into_iter()
                    .map(|b| b.wrapping_add(block as u8))
                    .collect();
                // Write until the backend reports success.
                loop {
                    let mut done = submit(BlkOp::Write, sector, Some(payload.clone()));
                    if done.recv().await.unwrap().ok {
                        break;
                    }
                }
                // Read back until success; the data must match even if a
                // torn write left a partial prefix before the retry.
                loop {
                    let done = submit(BlkOp::Read, sector, None).recv().await.unwrap();
                    if done.ok {
                        assert_eq!(
                            done.data.as_deref(),
                            Some(payload.as_slice()),
                            "block {block} round-trips after transient faults"
                        );
                        break;
                    }
                }
            }
            0
        })
    });
    guest.add_device(front);
    let gdom = hv.create_domain("chaos-blk", 64, Box::new(guest));

    hv.run_until(Time::ZERO + Dur::secs(60));
    assert_eq!(
        hv.exit_code(gdom),
        Some(0),
        "all blocks round-tripped; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let stats = *dstats.lock();
    let injected = stats.blk_read_errors + stats.blk_write_errors + stats.blk_torn_writes;
    assert!(
        injected > 0,
        "the fault plan actually injected failures (stats: {stats:?}); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        stats.blk_completed > injected,
        "successful completions outnumber injected faults; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

// ------------------------------------------------------- crash/restart

/// A streaming server killed mid-transfer and restarted into the same
/// slot: the client detects the stall, reconnects, and completes a fresh
/// transfer; frames switched at the dead NIC are counted as
/// no-posted-rx-buffer drops, not congestion.
#[test]
fn killed_server_domain_restarts_and_the_client_recovers() {
    let _guard = chaos_lock().lock();
    let seed = test_seed();
    const SRV_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const CLI_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const PAYLOAD_LEN: usize = 1024 * 1024;

    // Builds one incarnation of the streaming server. A restarted
    // incarnation pings the client first so the switch relearns which
    // backend port now owns the server MAC.
    fn server_guest(xs: Xenstore, nf_name: &'static str, announce: bool) -> UnikernelGuest {
        let (front, nh) = Backend::XenRing.net(xs, nf_name, Mac::local(1).0, CopyDiscipline::ZeroCopy);
        let mut guest = UnikernelGuest::new(move |_env, rt| {
            let stack = Stack::spawn(rt, nh, StackConfig::static_ip(SRV_IP));
            let rt2 = rt.clone();
            rt.spawn(async move {
                if announce {
                    let _ = stack.ping(CLI_IP).await;
                }
                let mut listener = stack.tcp_listen(5001).await.unwrap();
                loop {
                    let Ok(mut stream) = listener.accept().await else {
                        break 0;
                    };
                    let payload = pattern(PAYLOAD_LEN);
                    let mut sent = 0usize;
                    while sent < payload.len() {
                        let n = (payload.len() - sent).min(16 * 1024);
                        stream.write(&payload[sent..sent + n]);
                        sent += n;
                        rt2.yield_now().await;
                    }
                    stream.close();
                    stream.wait_closed().await;
                }
            })
        });
        guest.add_device(front);
        guest
    }

    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(600_000_000);

    let tap = Tap::new([0x02, 0, 0, 0, 0, 0x77]);
    let mut dom0 = DriverDomain::new(xs.clone());
    dom0.add_tap(tap.clone());
    let dstats = dom0.stats_handle();
    let d0 = hv.create_domain("dom0", 512, Box::new(dom0));

    let srv_dom = hv.create_domain("victim", 128, Box::new(server_guest(xs.clone(), "srv", false)));

    // Client: read with a stall timeout; on stall, abandon the stream and
    // reconnect until a connection delivers the complete payload.
    let result_out: Arc<Mutex<Option<(bool, u32)>>> = Arc::new(Mutex::new(None));
    let result_in = Arc::clone(&result_out);
    let (front_c, nh_c) =
        Backend::XenRing.net(xs.clone(), "cli", Mac::local(2).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLI_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let expected = pattern(PAYLOAD_LEN);
            let mut connections: u32 = 0;
            for _ in 0..10 {
                let mut stream = loop {
                    match stack.tcp_connect(SRV_IP, 5001).await {
                        Ok(s) => break s,
                        Err(_) => rt2.sleep(Dur::millis(20)).await,
                    }
                };
                connections += 1;
                let mut got: Vec<u8> = Vec::new();
                let complete = loop {
                    match rt2.timeout(Dur::millis(50), Box::pin(stream.read())).await {
                        Ok(Some(chunk)) => got.extend_from_slice(&chunk),
                        Ok(None) => break true,  // graceful EOF: full payload
                        Err(_) => break false,   // stall: the peer died
                    }
                };
                if complete && got.len() == PAYLOAD_LEN {
                    *result_in.lock() = Some((got == expected, connections));
                    return 0;
                }
                // Stalled mid-transfer: drop the carcass and try again.
                drop(stream);
            }
            1
        })
    });
    client.add_device(front_c);
    let cli_dom = hv.create_domain("chaos-cli", 128, Box::new(client));

    // Let the first transfer get going, then kill the server mid-stream.
    hv.run_until(Time::ZERO + Dur::millis(8));
    hv.kill_domain(srv_dom);
    assert_eq!(
        hv.exit_code(srv_dom),
        Some(KILLED_EXIT_CODE),
        "kill recorded; reproduce with MIRAGE_TEST_SEED={seed}"
    );

    // Flood the dead NIC in two waves: the first exhausts its leftover
    // posted rx buffers, the second is tail-dropped with the starvation
    // flag set and must be classified as no-rx-buffer loss.
    let flood_frame = |i: u64| {
        let mut f = Vec::with_capacity(64);
        f.extend_from_slice(&Mac::local(1).0);
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x77]);
        f.extend_from_slice(&[0x08, 0x00]);
        f.extend_from_slice(&i.to_be_bytes());
        f.resize(64, 0);
        PktBuf::from_vec(f)
    };
    for i in 0..600u64 {
        tap.inject(flood_frame(i));
    }
    hv.wake_external(d0);
    hv.run_until(Time::ZERO + Dur::millis(10));
    for i in 600..1200u64 {
        tap.inject(flood_frame(i));
    }
    hv.wake_external(d0);
    hv.run_until(Time::ZERO + Dur::millis(12));

    // Restart the domain in place with a fresh incarnation.
    hv.restart_domain(srv_dom, Box::new(server_guest(xs.clone(), "srv", true)));
    hv.run_until(Time::ZERO + Dur::secs(60));

    assert_eq!(
        hv.exit_code(cli_dom),
        Some(0),
        "client completed a transfer after the restart; \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let (intact, connections) = result_out.lock().take().expect("client reported");
    assert!(
        intact,
        "the post-restart payload is byte-intact; reproduce with MIRAGE_TEST_SEED={seed}"
    );
    assert!(
        connections >= 2,
        "the kill forced a reconnect (used {connections} connections); \
         reproduce with MIRAGE_TEST_SEED={seed}"
    );
    let stats = *dstats.lock();
    assert!(
        stats.frames_dropped_no_rx_buffer > 0,
        "drops at the dead NIC are classified as no-rx-buffer \
         (stats: {stats:?}); reproduce with MIRAGE_TEST_SEED={seed}"
    );
}

// --------------------------------------------------- seed reproduction

/// Runs a property that is guaranteed to falsify and returns the panic
/// message the driver printed.
fn falsify_with(cfg: prop::Config) -> String {
    let result = std::panic::catch_unwind(|| {
        prop::run_with(cfg, "chaos-seed-regression", prop::any::<u64>(), |v| {
            assert!(v % 3 != 0, "synthetic chaos failure on a multiple of 3");
        });
    });
    let payload = result.expect_err("the property must falsify");
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        panic!("unexpected panic payload type");
    }
}

/// The failure-reproduction contract: a falsified property prints a
/// `MIRAGE_TEST_SEED=` line, and re-running under exactly that seed
/// reproduces the failure byte-for-byte.
#[test]
fn seeded_failure_reprints_a_seed_that_reproduces_it_exactly() {
    let _guard = chaos_lock().lock();

    let first = falsify_with(prop::Config {
        cases: 64,
        max_shrink_steps: 200,
        seed: test_seed(),
    });
    let marker = "MIRAGE_TEST_SEED=";
    let at = first
        .find(marker)
        .unwrap_or_else(|| panic!("failure message carries the seed marker: {first}"));
    let digits: String = first[at + marker.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    let reprinted: u64 = digits.parse().expect("seed parses back out of the message");

    // Re-run under exactly the reprinted seed, as a user pasting the
    // reproduction line would.
    let second = falsify_with(prop::Config {
        cases: 64,
        max_shrink_steps: 200,
        seed: reprinted,
    });
    assert_eq!(
        first, second,
        "the reprinted seed reproduces the failure byte-for-byte"
    );
}
