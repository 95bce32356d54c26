//! Scale suite: the C1M machinery at test size.
//!
//! The tentpole claim is that idle connections are free — the stack's
//! deadline wheel only ever touches connections with due work, so a table
//! holding 100k ESTABLISHED entries polls *zero* TCBs across a quiet
//! tick. These tests build real multi-domain worlds (driver domain,
//! netfront rings, full handshakes) and assert that property through
//! [`StackStats::timer_polls`], plus the satellite behaviours that ride
//! the same wheel (ping timeouts).
//!
//! `MIRAGE_SCALE_CONNS` scales the idle population; the tier-1 default
//! keeps debug-mode runtime modest while `scripts/verify.sh --scale`
//! re-runs the suite in release at 100k.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mirage::devices::netfront::CopyDiscipline;

use mirage::devices::Backend;
use mirage::devices::{DriverDomain, Xenstore};
use mirage::hypervisor::{Dur, Hypervisor, Time};
use mirage::net::{Ipv4Addr, Mac, NetError, Stack, StackConfig, StackStats, TcpStream};
use mirage::runtime::{Runtime, UnikernelGuest};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 80);

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Builds a world where `n` connections are opened against one appliance
/// and then go idle, waits for the table to fill, and snapshots the
/// server's [`StackStats`] across a 5ms quiet window.
fn idle_window_stats(n: usize) -> (StackStats, StackStats) {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::with_pcpus(8);
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    let accepted = Arc::new(AtomicU64::new(0));
    let parked: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let window: Arc<Mutex<Option<(StackStats, StackStats)>>> = Arc::new(Mutex::new(None));

    let (netf, nh) = Backend::XenRing.net(xs.clone(), "scale-srv", Mac::local(80).0, CopyDiscipline::ZeroCopy);
    let accepted_srv = Arc::clone(&accepted);
    let parked_srv = Arc::clone(&parked);
    let window_srv = Arc::clone(&window);
    let mut server = UnikernelGuest::new(move |_env, rt: &Runtime| {
        let cfg = StackConfig::builder(SERVER_IP)
            .listen_backlog(4096)
            .build()
            .expect("valid stack config");
        let stack = Stack::spawn(rt, nh, cfg);
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(80).await.expect("port 80");
            {
                let accepted = Arc::clone(&accepted_srv);
                let parked = Arc::clone(&parked_srv);
                let rt3 = rt2.clone();
                rt2.spawn(async move {
                    loop {
                        let Ok(stream) = listener.accept().await else { break };
                        // Park the stream: ESTABLISHED, no task, no timer.
                        parked.lock().unwrap().push(stream);
                        accepted.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(rt3);
                });
            }
            // Wait for the whole population, let the last handshakes
            // settle, then measure a quiet tick.
            while accepted_srv.load(Ordering::Relaxed) < n as u64 {
                rt2.sleep(Dur::millis(1)).await;
            }
            rt2.sleep(Dur::millis(3)).await;
            let s0 = stack.stack_stats().await.expect("stack alive");
            rt2.sleep(Dur::millis(5)).await;
            let s1 = stack.stack_stats().await.expect("stack alive");
            *window_srv.lock().unwrap() = Some((s0, s1));
            0
        })
    });
    server.add_device(netf);
    hv.create_domain("scale-server", 1024, Box::new(server));

    // Each client stack has ~16k ephemeral ports; shard the population.
    let clients = n.div_ceil(14_000).clamp(1, 64);
    let per = n / clients;
    let rem = n % clients;
    for d in 0..clients {
        let name = format!("scale-c{d}");
        let (front, nh_c) = Backend::XenRing.net(
            xs.clone(),
            &name,
            Mac::local(100 + d as u32).0,
            CopyDiscipline::ZeroCopy,
        );
        let ip = Ipv4Addr::new(10, 0, 0, (100 + d) as u8);
        let my_conns = per + usize::from(d < rem);
        let mut guest = UnikernelGuest::new(move |_env, rt: &Runtime| {
            let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(ip));
            let rt2 = rt.clone();
            rt.spawn(async move {
                rt2.sleep(Dur::millis(5) + Dur::micros(37 * d as u64)).await;
                let mut held = Vec::with_capacity(my_conns);
                let mut done = 0usize;
                while done < my_conns {
                    let b = 4.min(my_conns - done);
                    let mut handles = Vec::with_capacity(b);
                    for _ in 0..b {
                        let stack2 = stack.clone();
                        handles.push(rt2.spawn(async move {
                            stack2.tcp_connect(SERVER_IP, 80).await.ok()
                        }));
                    }
                    for h in handles {
                        if let Some(s) = h.await {
                            held.push(s);
                        }
                    }
                    done += b;
                }
                // Hold every stream open; the domain idles forever.
                rt2.sleep_until(Time::MAX).await;
                drop(held);
                0
            })
        });
        guest.add_device(front);
        hv.create_domain(&name, 64, Box::new(guest));
    }

    hv.run_until(Time::ZERO + Dur::secs(600));
    let got = window.lock().unwrap().take();
    got.expect("server finished its measurement window")
}

/// The tentpole regression: with every connection idle, a quiet tick
/// drives zero `Connection::poll` calls no matter how large the table is.
/// The old binary-heap + full-scan design polled O(connections) per tick;
/// the wheel polls O(due work), and here nothing is due.
#[test]
fn idle_connections_poll_nothing_on_a_quiet_tick() {
    let n = env_usize("MIRAGE_SCALE_CONNS", 10_000);
    let (s0, s1) = idle_window_stats(n);
    assert!(
        s1.conns >= n as u64,
        "expected {n} idle connections held, stack reports {}",
        s1.conns
    );
    assert_eq!(
        s1.timer_polls - s0.timer_polls,
        0,
        "a quiet 5ms tick polled TCBs with {} idle connections (stats {s0:?} -> {s1:?})",
        s1.conns
    );
    assert_eq!(s1.half_open, 0, "all handshakes should have completed");
}

/// Two-stack world for the ping satellites.
fn ping_world(
    dst: Ipv4Addr,
) -> (Option<Dur>, Dur) {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    let result: Arc<Mutex<Option<(Option<Dur>, Dur)>>> = Arc::new(Mutex::new(None));

    let (netf_b, nh_b) = Backend::XenRing.net(xs.clone(), "ping-b", Mac::local(2).0, CopyDiscipline::ZeroCopy);
    let mut responder = UnikernelGuest::new(move |_env, rt: &Runtime| {
        let _stack = Stack::spawn(rt, nh_b, StackConfig::static_ip(Ipv4Addr::new(10, 0, 0, 2)));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep_until(Time::MAX).await;
            0
        })
    });
    responder.add_device(netf_b);
    hv.create_domain("ping-responder", 64, Box::new(responder));

    let (netf_a, nh_a) = Backend::XenRing.net(xs.clone(), "ping-a", Mac::local(1).0, CopyDiscipline::ZeroCopy);
    let result_a = Arc::clone(&result);
    let mut pinger = UnikernelGuest::new(move |_env, rt: &Runtime| {
        let stack = Stack::spawn(rt, nh_a, StackConfig::static_ip(Ipv4Addr::new(10, 0, 0, 1)));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let t0 = rt2.now();
            let rtt = match stack.ping(dst).await {
                Ok(rtt) => Some(rtt),
                Err(NetError::TimedOut) => None,
                Err(e) => panic!("unexpected ping error: {e}"),
            };
            let elapsed = rt2.now().since(t0);
            *result_a.lock().unwrap() = Some((rtt, elapsed));
            0
        })
    });
    pinger.add_device(netf_a);
    hv.create_domain("pinger", 64, Box::new(pinger));

    hv.run_until(Time::ZERO + Dur::secs(60));
    let got = result.lock().unwrap().take();
    got.expect("ping completed")
}

/// Ping timeouts ride the same deadline wheel as TCP: an unanswered echo
/// fails after exactly the stack's 5s timeout (the wheel fires on the
/// exact nanosecond deadline, not a slot boundary).
#[test]
fn unanswered_ping_times_out_on_the_wheel_deadline() {
    let (rtt, elapsed) = ping_world(Ipv4Addr::new(10, 0, 0, 77));
    assert_eq!(rtt, None, "nobody owns 10.0.0.77, the ping must time out");
    // The wheel fires on the exact 5s deadline; the waking task then pays
    // a few thread-switch charges before it can read the clock.
    assert!(
        elapsed >= Dur::secs(5) && elapsed < Dur::secs(5) + Dur::micros(1),
        "timeout should fire on the PING_TIMEOUT deadline, elapsed {elapsed:?}"
    );
}

/// A pong must cancel the wheel entry and resolve well before the
/// timeout — the satellite's success path.
#[test]
fn answered_ping_cancels_its_wheel_entry() {
    let (rtt, elapsed) = ping_world(Ipv4Addr::new(10, 0, 0, 2));
    let rtt = rtt.expect("live peer answers");
    assert!(rtt < Dur::secs(1), "LAN rtt should be far under the timeout");
    assert!(elapsed < Dur::secs(1), "no 5s stall on the success path");
}
