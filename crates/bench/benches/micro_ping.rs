//! §4.1.3 flood-ping microbenchmark: "we flooded 10⁶ pings … Mirage
//! suffered a small (4–10%) increase in latency compared to Linux due to
//! the slight overhead of type-safety, but both survived a 72-hour flood
//! ping test." The flood itself runs through the real ICMP code against a
//! live stack; the latency comparison uses the endpoint models.

use mirage_baseline::TcpEndpoint;
use mirage_bench::report;
use mirage_devices::netfront::CopyDiscipline;
use mirage_devices::Backend;
use mirage_devices::{DriverDomain, Tap, Xenstore};
use mirage_hypervisor::{CostTable, Dur, Hypervisor, Time};
use mirage_net::{ethernet, icmp, ipv4, Ipv4Addr, Mac, Stack, StackConfig};
use mirage_runtime::UnikernelGuest;

const TARGET_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// Floods `n` echo requests at a live Mirage stack through a tap and
/// counts replies (the survival test, scaled down).
fn flood_ping(n: usize) -> usize {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    let tap = Tap::new(Mac::local(0xFF).0);
    let mut dom0 = DriverDomain::new(xs.clone());
    dom0.add_tap(tap.clone());
    let d0 = hv.create_domain("dom0", 512, Box::new(dom0));

    let (front, nh) = Backend::XenRing.net(xs.clone(), "target", Mac::local(1).0, CopyDiscipline::ZeroCopy);
    let mut guest = UnikernelGuest::new(move |_env, rt| {
        let _stack = Stack::spawn(rt, nh, StackConfig::static_ip(TARGET_IP));
        rt.spawn(async move {
            // The stack answers pings by itself; just stay alive.
            std::future::pending::<()>().await;
            0i64
        })
    });
    guest.add_device(front);
    hv.create_domain("target", 64, Box::new(guest));
    hv.run_until(Time::ZERO + Dur::millis(50));

    // Teach the target our IP→MAC binding with one ARP request (it both
    // learns the sender and replies); echo replies then flow straight back.
    let src_ip = Ipv4Addr::new(10, 0, 0, 200);
    let arp = mirage_net::arp::ArpPacket {
        op: mirage_net::arp::ArpOp::Request,
        sha: Mac(tap.mac()),
        spa: src_ip,
        tha: Mac::ZERO,
        tpa: TARGET_IP,
    };
    let mut frame = vec![0; ethernet::HEADER_LEN + mirage_net::arp::ARP_LEN];
    ethernet::write_header(
        &mut frame,
        Mac::BROADCAST,
        Mac(tap.mac()),
        ethernet::EtherType::Arp,
    );
    arp.write(&mut frame[ethernet::HEADER_LEN..]);
    tap.inject(frame);
    hv.wake_external(d0);
    hv.run_for(Dur::millis(10));
    let _ = tap.harvest(); // drop the ARP reply
    let mut replies = 0usize;
    for batch in 0..(n / 64).max(1) {
        for i in 0..64usize {
            let echo = icmp::Echo {
                is_request: true,
                ident: 0x7071,
                seq: (batch * 64 + i) as u16,
                payload: b"flood",
            };
            let len = echo.wire_len();
            let mut frame = vec![0; ethernet::HEADER_LEN + ipv4::HEADER_LEN + len];
            let (eth, ip) = frame.split_at_mut(ethernet::HEADER_LEN);
            ethernet::write_header(
                eth,
                Mac::local(1),
                Mac(tap.mac()),
                ethernet::EtherType::Ipv4,
            );
            let (ip, body) = ip.split_at_mut(ipv4::HEADER_LEN);
            ipv4::write_header(ip, src_ip, TARGET_IP, ipv4::protocol::ICMP, i as u16, len);
            echo.write(body);
            tap.inject(frame);
        }
        hv.wake_external(d0);
        hv.run_for(Dur::millis(10));
        for frame in tap.harvest() {
            let eth = ethernet::Frame::parse(&frame).expect("frame");
            if eth.ethertype != ethernet::EtherType::Ipv4 {
                continue;
            }
            let Ok(pkt) = ipv4::Ipv4Packet::parse(eth.payload) else {
                continue;
            };
            if pkt.protocol == ipv4::protocol::ICMP
                && icmp::Echo::parse(pkt.payload).map(|e| !e.is_request) == Some(true)
            {
                replies += 1;
            }
        }
    }
    replies
}

fn print_micro() {
    report::banner(
        "§4.1.3 ping",
        "flood-ping survival + echo latency comparison",
    );
    let sent = 4096;
    let replies = flood_ping(sent);
    println!("flood: {replies}/{sent} echo replies through the live stack");
    assert!(replies * 10 >= sent * 9, "the stack survives the flood");

    let costs = CostTable::defaults();
    let linux = TcpEndpoint::Linux.ping_latency(&costs);
    let mirage = TcpEndpoint::Mirage.ping_latency(&costs);
    report::table(
        &["target", "echo latency (us)"],
        &[
            vec!["Linux".into(), report::f(linux.as_millis_f64() * 1e3, 2)],
            vec!["Mirage".into(), report::f(mirage.as_millis_f64() * 1e3, 2)],
        ],
    );
    println!(
        "overhead: {:.1}% (paper: 4-10% from type-safe parsing)",
        (mirage.as_nanos() as f64 / linux.as_nanos() as f64 - 1.0) * 100.0
    );
}

fn main() {
    print_micro();
}
