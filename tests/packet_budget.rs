//! The per-packet allocation budget, end to end: one UDP datagram echoed
//! between two guests through dom0 over the Xen descriptor ring — four
//! ring crossings, two switch hops, two stacks — may allocate only so
//! much. The number is what the path does today, site by site (DESIGN.md
//! "Per-packet budget"); a change that puts an allocation back on the
//! ring, in the driver domain's xenstore scan or in the runtime's cost
//! lookups fails here, in tier-1, rather than in a profile.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mirage::devices::netfront::CopyDiscipline;
use mirage::devices::{Backend, DriverDomain, Xenstore};
use mirage::hypervisor::{Dur, Hypervisor, Time};
use mirage::net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage::runtime::UnikernelGuest;
use mirage_testkit::alloc::{count, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

/// Allocations per echoed datagram, both directions, every layer, with one
/// datagram in flight (so nothing is amortised over a burst: every frame
/// is its own hypervisor step, executor round and doorbell). Measured: 8.
/// At the commit before this test it was 142 — 60 of them the driver
/// domain listing xenstore on every step, 8 the ring copying each slot
/// into a `Vec`; then 74, 18 of them a `Vec` of watched ports built per
/// device per run-loop pass; then 56, 20 of them the executor's waker per
/// poll and per-round `Vec`s and 16 the hypervisor's per-step lanes,
/// wakes and gang-placement list; then 20, 6 of them the port lists a
/// guest and the driver domain handed the hypervisor with every block
/// (116 956 → 81 869 over 5 848 round trips); then 14, 6 of them the
/// switch's `Vec`, `PktBuf::from_vec` box and per-pass `routed` `Vec` for
/// each of the two frames, which now go page to page (81 869 → 46 781).
/// All of those are 0 now, and the budget holds them there.
const ROUND_TRIP_BUDGET: u64 = 8;

#[test]
fn a_udp_round_trip_stays_within_its_allocation_budget() {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    let (front_s, nh_s) = Backend::XenRing.net(
        xs.clone(),
        "echo",
        Mac::local(7).0,
        CopyDiscipline::ZeroCopy,
    );
    let mut server = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(SERVER_IP));
        rt.spawn(async move {
            let mut sock = stack.udp_bind(7).await.expect("port 7");
            loop {
                let Ok((src, sport, payload)) = sock.recv_from().await else {
                    return 0;
                };
                sock.send_to(src, sport, payload);
            }
        })
    });
    server.add_device(front_s);
    hv.create_domain("echo", 32, Box::new(server));

    let round_trips = Arc::new(AtomicU64::new(0));
    let done = Arc::clone(&round_trips);
    let (front_c, nh_c) =
        Backend::XenRing.net(xs.clone(), "cli", Mac::local(9).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(1)).await;
            let mut sock = stack.udp_bind(40_000).await.expect("bind");
            loop {
                sock.send_to(
                    SERVER_IP,
                    7,
                    b"forty-eight bytes of datagram payload, echoed...".to_vec(),
                );
                let Ok((_, _, echoed)) = sock.recv_from().await else {
                    return 0;
                };
                assert_eq!(echoed.len(), 48);
                done.fetch_add(1, Ordering::Relaxed);
            }
        })
    });
    client.add_device(front_c);
    hv.create_domain("client", 32, Box::new(client));

    // Warm-up: handshakes, ARP, every table and queue grown to size.
    hv.run_until(Time::ZERO + Dur::millis(20));
    let warm = round_trips.load(Ordering::Relaxed);
    assert!(warm > 100, "echo established ({warm} round trips)");

    let ((), allocations) = count(|| {
        hv.run_until(Time::ZERO + Dur::millis(60));
    });
    let measured = round_trips.load(Ordering::Relaxed) - warm;
    assert!(
        measured > 500,
        "steady state measured ({measured} round trips)"
    );
    let per_round_trip = allocations.div_ceil(measured);
    assert!(
        per_round_trip <= ROUND_TRIP_BUDGET,
        "{per_round_trip} allocations per UDP round trip ({allocations} over {measured}), \
         budget {ROUND_TRIP_BUDGET}"
    );
}
