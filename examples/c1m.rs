//! C1M: one million concurrent connections against a single appliance.
//!
//! The paper's pitch is that a unikernel appliance is cheap enough to hold
//! open "a connection per customer" — this scenario proves the stack's
//! idle-connection cost is O(due work), not O(connections). A fleet of
//! client domains ramps mostly-idle keep-alive HTTP connections against one
//! server appliance while a hot subset streams requests the whole time;
//! the virtual-time tick cost is sampled at 10k and at full scale, and a
//! 1000-domain boot storm (figure 6 at 20x fleet size) closes the run.
//! The run checks its own gates on the values it holds and exits non-zero
//! unless the server holds exactly the connections asked for and a quiet
//! tick at full scale costs at most 2x one at 10k.
//!
//! ```text
//! cargo run --release --example c1m
//! ```
//!
//! Knobs (all optional):
//!
//! * `MIRAGE_C1M_CONNS` — idle keep-alive connections (default 1_000_000)
//! * `MIRAGE_C1M_HOT`   — streaming-hot connections   (default 1024)
//! * `MIRAGE_C1M_STORM` — boot-storm fleet size        (default 1000)
//!
//! Everything printed on **stdout** is a function of virtual time only and
//! is byte-identical across runs (`scripts/verify.sh --scale` diffs a
//! double run); wall-clock tick costs and RSS go to **stderr**.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mirage::core::{Appliance, Library};
use mirage::devices::netfront::CopyDiscipline;
use mirage::devices::Backend;
use mirage::devices::{DriverDomain, Xenstore};
use mirage::hypervisor::toolstack::{BuildMode, DomainSpec, Toolstack};
use mirage::hypervisor::{Dur, Hypervisor, Time};
use mirage::net::{idle_conn_bytes, Ipv4Addr, Mac, Stack, StackConfig, StackStats, TcpStream};
use mirage::runtime::{Runtime, UnikernelGuest};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 80);

const REQ_IDLE: &[u8] = b"GET /idle HTTP/1.1\r\nHost: c1m\r\nConnection: keep-alive\r\n\r\n";
const REQ_HOT: &[u8] = b"GET /hot HTTP/1.1\r\nHost: c1m\r\nConnection: keep-alive\r\n\r\n";
const RESP_OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
const RESP_HOT: &[u8] =
    b"HTTP/1.1 200 OK\r\nContent-Length: 32\r\n\r\nstreaming-chunk-0123456789abcdef";

/// Client domains the connections are ramped from.
const CLIENTS: usize = 64;

/// Per-domain connects in flight at once. 64 domains x 6 = 384 frames per
/// switch pass, inside the driver domain's 512-frame queues even with the
/// hot subset's traffic on top — no congestion drops, so no retransmit
/// noise in the latency numbers.
const BATCH: usize = 6;

/// Virtual time between requests on each hot connection.
const HOT_PERIOD: Dur = Dur::millis(20);

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Cross-domain scoreboard. All timestamps and counters below are driven
/// by virtual time, so their evolution is deterministic for a fixed seed.
struct Shared {
    established: AtomicU64,
    hot_responses: AtomicU64,
    ramp_paused: AtomicBool,
    hot_paused: AtomicBool,
    latencies: Mutex<Vec<u64>>,
    parked_client: Mutex<Vec<TcpStream>>,
    parked_server: Mutex<Vec<TcpStream>>,
    server_stats: Mutex<StackStats>,
}

fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

async fn serve_conn(mut s: TcpStream, sh: Arc<Shared>) {
    // Read the first request (it may arrive split across segments).
    let mut buf: Vec<u8> = Vec::new();
    let hot = loop {
        let Some(chunk) = s.read().await else { return };
        buf.extend_from_slice(&chunk);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break buf.starts_with(b"GET /hot");
        }
    };
    s.write(RESP_OK);
    if hot {
        // Streaming echo loop: clients pipeline one request at a time, so
        // each read is exactly one request.
        loop {
            let Some(_req) = s.read().await else { return };
            s.write(RESP_HOT);
            sh.hot_responses.fetch_add(1, Ordering::Relaxed);
        }
    } else {
        // Keep-alive: park the stream so the connection stays ESTABLISHED
        // with no task, no timer and no buffered bytes behind it.
        sh.parked_server.lock().unwrap().push(s);
    }
}

/// One measurement window: pause the ramp *and* the hot subset, let
/// in-flight traffic drain, then time a run of quiet virtual-millisecond
/// ticks. With zero due work the measured cost is the tick machinery
/// itself — wheel advance plus executor bookkeeping — which is the
/// quantity the O(due work) claim says must not grow with the idle
/// population. Returns the best wall-clock ns per virtual ms plus the
/// server's timer-poll delta and connection count over the timed part of
/// the window.
fn quiet_window(hv: &mut Hypervisor, sh: &Shared) -> (f64, u64, u64) {
    sh.ramp_paused.store(true, Ordering::Relaxed);
    sh.hot_paused.store(true, Ordering::Relaxed);
    // One hot period plus a few ms lets every hot task finish its round
    // trip in flight and park on the pause flag.
    let settle = HOT_PERIOD + Dur::millis(8);
    let t = hv.now() + settle;
    hv.run_until(t);
    let before = *sh.server_stats.lock().unwrap();
    let mut best = f64::INFINITY;
    for _ in 0..8 {
        let t = hv.now() + Dur::millis(1);
        let w = Instant::now();
        hv.run_until(t);
        best = best.min(w.elapsed().as_nanos() as f64);
    }
    let after = *sh.server_stats.lock().unwrap();
    sh.hot_paused.store(false, Ordering::Relaxed);
    sh.ramp_paused.store(false, Ordering::Relaxed);
    (
        best,
        after.timer_polls - before.timer_polls,
        after.conns,
    )
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn c1m(conns: usize, hot: usize) {
    let shared = Arc::new(Shared {
        established: AtomicU64::new(0),
        hot_responses: AtomicU64::new(0),
        ramp_paused: AtomicBool::new(false),
        hot_paused: AtomicBool::new(false),
        latencies: Mutex::new(Vec::with_capacity(conns)),
        parked_client: Mutex::new(Vec::with_capacity(conns)),
        parked_server: Mutex::new(Vec::with_capacity(conns)),
        server_stats: Mutex::new(StackStats::default()),
    });

    let xs = Xenstore::new();
    let mut hv = Hypervisor::with_pcpus(8);
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    // The appliance under load: one stack, one listener, a million table
    // entries. Idle handlers park their stream and exit, so live tasks
    // stay bounded by the in-flight batch plus the hot subset.
    let (netf, nh) = Backend::XenRing.net(xs.clone(), "c1m-srv", Mac::local(80).0, CopyDiscipline::ZeroCopy);
    let sh = Arc::clone(&shared);
    let mut server = UnikernelGuest::new(move |_env, rt: &Runtime| {
        // Full batches from every client may be half-open at once; keep
        // the stateful path primary (cookies still cover real floods).
        let cfg = StackConfig::builder(SERVER_IP)
            .listen_backlog(4096)
            .build()
            .expect("valid stack config");
        let stack = Stack::spawn(rt, nh, cfg);
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(80).await.expect("port 80");
            // Stats monitor: publishes the stack's counters every 500us of
            // virtual time so the host side can read them between ticks.
            {
                let stack2 = stack.clone();
                let sh2 = Arc::clone(&sh);
                let rt3 = rt2.clone();
                rt2.spawn(async move {
                    loop {
                        rt3.sleep(Dur::micros(500)).await;
                        if let Ok(s) = stack2.stack_stats().await {
                            *sh2.server_stats.lock().unwrap() = s;
                        }
                    }
                });
            }
            loop {
                let Ok(stream) = listener.accept().await else {
                    break 0;
                };
                let sh3 = Arc::clone(&sh);
                rt2.spawn(serve_conn(stream, sh3));
            }
        })
    });
    server.add_device(netf);
    hv.create_domain("c1m-server", 2048, Box::new(server));

    // Client fleet: each domain owns one stack (16k ephemeral ports) and
    // ramps its share in small awaited batches. Domain 0 also drives the
    // hot subset.
    let per_dom = conns / CLIENTS;
    let rem = conns % CLIENTS;
    for d in 0..CLIENTS {
        let name = format!("c1m-c{d}");
        let (front, nh_c) = Backend::XenRing.net(
            xs.clone(),
            &name,
            Mac::local(100 + d as u32).0,
            CopyDiscipline::ZeroCopy,
        );
        let ip = Ipv4Addr::new(10, 0, 0, (100 + d) as u8);
        // Domain 0's hot conns come out of its idle share: each stack has
        // 16,384 ephemeral ports (49152..), and a full 1/64 idle share plus
        // the hot subset would blow that budget and wedge the tail of the
        // ramp on reused quads. Total established stays exactly `conns`.
        let my_hot = if d == 0 { hot } else { 0 };
        let my_conns = (per_dom + usize::from(d < rem)).saturating_sub(my_hot);
        let sh = Arc::clone(&shared);
        let mut guest = UnikernelGuest::new(move |_env, rt: &Runtime| {
            let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(ip));
            let rt2 = rt.clone();
            rt.spawn(async move {
                // Let the fabric come up, staggered so 64 domains don't
                // ARP/SYN in lockstep.
                rt2.sleep(Dur::millis(5) + Dur::micros(37 * d as u64)).await;

                // Hot subset: connect, then stream a request every
                // HOT_PERIOD forever. These never park — they are the due
                // work every tick must service regardless of idle
                // population.
                for h in 0..my_hot {
                    let stack2 = stack.clone();
                    let sh2 = Arc::clone(&sh);
                    let rt3 = rt2.clone();
                    rt2.spawn(async move {
                        let Ok(mut s) = stack2.tcp_connect(SERVER_IP, 80).await else {
                            return;
                        };
                        sh2.established.fetch_add(1, Ordering::Relaxed);
                        s.write(REQ_HOT); // the first-line path marks this conn hot
                        let Some(_resp) = s.read().await else { return };
                        loop {
                            rt3.sleep(HOT_PERIOD).await;
                            // Quiet-window measurements park the hot
                            // subset so the timed ticks carry zero due
                            // network work.
                            while sh2.hot_paused.load(Ordering::Relaxed) {
                                rt3.sleep(Dur::millis(4)).await;
                            }
                            s.write(REQ_HOT);
                            let Some(_resp) = s.read().await else { return };
                        }
                    });
                    if h % 32 == 31 {
                        rt2.sleep(Dur::micros(500)).await;
                    }
                }

                // Idle ramp: BATCH connects in flight per domain, awaited
                // so the switch queues never see more than
                // clients x BATCH frames in one pass.
                let mut done = 0usize;
                while done < my_conns {
                    while sh.ramp_paused.load(Ordering::Relaxed) {
                        rt2.sleep(Dur::micros(500)).await;
                    }
                    let b = BATCH.min(my_conns - done);
                    let mut handles = Vec::with_capacity(b);
                    for _ in 0..b {
                        let stack2 = stack.clone();
                        let sh2 = Arc::clone(&sh);
                        let rt3 = rt2.clone();
                        handles.push(rt2.spawn(async move {
                            let t0 = rt3.now();
                            let Ok(mut s) = stack2.tcp_connect(SERVER_IP, 80).await else {
                                return;
                            };
                            let dt = rt3.now().since(t0).as_nanos();
                            s.write(REQ_IDLE);
                            let Some(_resp) = s.read().await else { return };
                            sh2.latencies.lock().unwrap().push(dt);
                            sh2.established.fetch_add(1, Ordering::Relaxed);
                            // Park the client half too: both ends idle.
                            sh2.parked_client.lock().unwrap().push(s);
                        }));
                    }
                    for h in handles {
                        h.await;
                    }
                    done += b;
                }
                // Hold every connection open until the host tears the
                // world down.
                rt2.sleep_until(Time::MAX).await;
                0
            })
        });
        guest.add_device(front);
        hv.create_domain(&name, 64, Box::new(guest));
    }

    // Drive the world a virtual millisecond at a time, sampling tick cost
    // once 10k connections are up and again at full scale.
    let total_target = conns as u64;
    let mid_target = 10_000.min(total_target / 2);
    let limit = Time::ZERO + Dur::secs(3600);
    let mut mid: Option<(f64, u64, u64)> = None;
    let full;
    let wall_start = Instant::now();
    let mut next_report = 0u64;
    loop {
        let t = hv.now() + Dur::millis(1);
        hv.run_until(t);
        let est = shared.established.load(Ordering::Relaxed);
        if est >= next_report {
            eprintln!(
                "[wall] progress     : {est} established at {} ({:.1}s wall)",
                hv.now(),
                wall_start.elapsed().as_secs_f64()
            );
            next_report = est + (total_target / 20).max(1);
        }
        if mid.is_none() && est >= mid_target {
            mid = Some(quiet_window(&mut hv, &shared));
        }
        if est >= total_target {
            full = quiet_window(&mut hv, &shared);
            break;
        }
        assert!(
            hv.now() < limit,
            "ramp stalled at {est}/{total_target} established"
        );
    }
    let (mid_wall, mid_polls, mid_conns) = mid.expect("mid window ran");
    let (full_wall, full_polls, full_conns) = full;
    let hot_resp = shared.hot_responses.load(Ordering::Relaxed);
    let established = shared.established.load(Ordering::Relaxed);

    let mut lats = std::mem::take(&mut *shared.latencies.lock().unwrap());
    lats.sort_unstable();
    let p50 = percentile(&lats, 0.50);
    let p99 = percentile(&lats, 0.99);

    // Deterministic summary (stdout): pure virtual-time facts.
    println!("== c1m ==");
    println!("connections held    : {full_conns} on the server ({established} client-side)");
    println!(
        "hot subset          : {hot} streaming every {}ms, {hot_resp} responses by t={}",
        HOT_PERIOD.as_nanos() / 1_000_000,
        hv.now()
    );
    println!(
        "accept latency      : p50 {:.1} us, p99 {:.1} us over {} handshakes (virtual)",
        p50 as f64 / 1000.0,
        p99 as f64 / 1000.0,
        lats.len()
    );
    println!(
        "idle conn audit     : {} bytes/conn in stack tables (struct + index)",
        idle_conn_bytes()
    );
    println!(
        "timer polls / 8ms   : {mid_polls} at {mid_conns} conns -> {full_polls} at {full_conns} conns"
    );
    println!("virtual time at full: {}", hv.now());

    // Wall-clock facts (stderr): real but machine-dependent.
    let tick_ratio = full_wall / mid_wall.max(1.0);
    eprintln!(
        "[wall] quiet tick   : {mid_wall:.0} ns/virtual-ms at {mid_conns} conns, {full_wall:.0} ns/virtual-ms at {full_conns} conns (x{tick_ratio:.2})"
    );
    if let Some(rss) = rss_bytes() {
        eprintln!(
            "[wall] rss          : {} MiB total, {:.0} bytes/conn amortised",
            rss >> 20,
            rss as f64 / full_conns.max(1) as f64
        );
    }

    // The gates: the appliance holds every connection it was asked for,
    // and the quiet-tick cost stays roughly flat (O(due work), not
    // O(connections)) from 10k to full scale.
    if full_conns != total_target {
        eprintln!("FAIL: {full_conns} connections held on the server, {total_target} requested");
        std::process::exit(1);
    }
    if tick_ratio > 2.0 {
        eprintln!(
            "FAIL: quiet-tick cost grew x{tick_ratio:.2} from {mid_conns} to {full_conns} connections (> 2.0)"
        );
        std::process::exit(1);
    }
}

fn boot_storm(fleet: usize) {
    let mut hv = Hypervisor::with_pcpus(8);
    let ts = Toolstack::new(BuildMode::Parallel);
    let specs: Vec<DomainSpec> = (0..fleet)
        .map(|i| {
            let appliance = Appliance::builder(&format!("c1m-storm-{i}"))
                .library(Library::APP_DNS)
                .dynamic_config("ip")
                .layout_seed(0xC1_0000 + i as u64)
                .build()
                .expect("valid appliance");
            let guest = appliance.into_guest(16, move |env, rt| {
                env.observe("boot-ready");
                rt.spawn(async move { i as i64 })
            });
            DomainSpec::new(format!("c1m-storm-{i}"), 16, Box::new(guest))
        })
        .collect();
    let built = ts.build(&mut hv, specs);
    hv.run();

    let mut ready: Vec<u64> = built
        .iter()
        .map(|b| {
            hv.observation(b.dom, "boot-ready")
                .expect("booted")
                .at
                .since(b.requested)
                .as_nanos()
        })
        .collect();
    ready.sort_unstable();
    let storm_end = built
        .iter()
        .map(|b| hv.observation(b.dom, "boot-ready").expect("booted").at)
        .max()
        .expect("fleet non-empty");
    for b in &built {
        assert_eq!(hv.exit_code(b.dom).map(|c| c >= 0), Some(true));
        assert!(hv.address_space(b.dom).is_sealed());
    }

    println!("== boot storm ==");
    println!("fleet               : {fleet} sealed DNS unikernels");
    println!(
        "boot latency        : p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms",
        percentile(&ready, 0.50) as f64 / 1e6,
        percentile(&ready, 0.99) as f64 / 1e6,
        ready[ready.len() - 1] as f64 / 1e6
    );
    println!(
        "whole storm ready at: {:.1} ms of virtual time",
        storm_end.since(Time::ZERO).as_millis_f64()
    );
}

fn main() {
    let conns = env_usize("MIRAGE_C1M_CONNS", 1_000_000);
    let hot = env_usize("MIRAGE_C1M_HOT", 1024);
    let storm = env_usize("MIRAGE_C1M_STORM", 1000);

    if conns > 0 {
        c1m(conns, hot);
    }
    if storm > 0 {
        boot_storm(storm);
    }
}
