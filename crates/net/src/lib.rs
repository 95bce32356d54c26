//! The Mirage network stack for mirage-rs (paper §3.5, Table 1).
//!
//! "Mirage implements protocol libraries in OCaml to ensure that all
//! external I/O handling is type-safe, making unikernels robust against
//! memory overflows." This crate is that suite in safe Rust:
//!
//! | Layer | Module |
//! |---|---|
//! | Ethernet | [`ethernet`] |
//! | ARP (+cache) | [`arp`] |
//! | IPv4 | [`ipv4`] |
//! | ICMP echo | [`icmp`] |
//! | UDP | [`udp`] |
//! | TCP (New Reno, fast retransmit/recovery, window scaling) | [`tcp`] |
//! | DHCP (client + server) | [`dhcp`] |
//! | async sockets over the runtime | [`stack`] |
//!
//! Every protocol is a *sans-io* state machine with its wire codec; the
//! [`stack::Stack`] glues them onto a
//! [`NetHandle`](mirage_devices::netfront::NetHandle) inside one
//! lightweight thread. Parsers validate checksums and bounds everywhere —
//! the "pervasive type-safety" of §2.3.2 — and malformed input is dropped,
//! never trusted.

pub mod addr;
pub mod arp;
pub mod checksum;
pub mod dhcp;
pub mod ethernet;
pub mod icmp;
pub mod ipv4;
pub mod stack;
pub mod tcp;
pub mod udp;

pub use addr::{Ipv4Addr, Mac};
pub use mirage_cstruct::{
    copy_counters, record_copy, reset_copy_counters, CopyCounters, PktBuf, PktQueue,
};
pub use stack::{
    idle_conn_bytes, NetError, Stack, StackConfig, StackStats, TcpListener, TcpStream, UdpSocket,
};

#[cfg(test)]
mod tests {
    //! End-to-end tests: full stacks in separate domains talking through
    //! netfront → driver-domain switch → netfront.

    use super::*;
    use mirage_devices::netfront::CopyDiscipline;
    use mirage_devices::Backend;
    use mirage_devices::{DriverDomain, Tap, Xenstore};
    use mirage_hypervisor::{Dur, Hypervisor, Time};
    use mirage_runtime::UnikernelGuest;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Builds a hypervisor with dom0 + two guests produced by closures that
    /// receive their Stack.
    fn two_stack_world(
        guest_a: impl FnOnce(Stack, mirage_runtime::Runtime) -> mirage_runtime::channel::JoinHandle<i64>
            + Send
            + 'static,
        guest_b: impl FnOnce(Stack, mirage_runtime::Runtime) -> mirage_runtime::channel::JoinHandle<i64>
            + Send
            + 'static,
    ) -> (Hypervisor, mirage_hypervisor::DomainId, mirage_hypervisor::DomainId) {
        let (hv, _dom0, dom_a, dom_b) = tapped_world(None, guest_a, guest_b);
        (hv, dom_a, dom_b)
    }

    /// [`two_stack_world`] with an optional tap on the switch; also returns
    /// dom0, to wake after injecting through the tap.
    fn tapped_world(
        tap: Option<Tap>,
        guest_a: impl FnOnce(Stack, mirage_runtime::Runtime) -> mirage_runtime::channel::JoinHandle<i64>
            + Send
            + 'static,
        guest_b: impl FnOnce(Stack, mirage_runtime::Runtime) -> mirage_runtime::channel::JoinHandle<i64>
            + Send
            + 'static,
    ) -> (
        Hypervisor,
        mirage_hypervisor::DomainId,
        mirage_hypervisor::DomainId,
        mirage_hypervisor::DomainId,
    ) {
        let xs = Xenstore::new();
        let mut hv = Hypervisor::new();
        let mut dom0 = DriverDomain::new(xs.clone());
        if let Some(tap) = tap {
            dom0.add_tap(tap);
        }
        let dom0 = hv.create_domain("dom0", 512, Box::new(dom0));

        let (front_a, nh_a) = Backend::XenRing.net(xs.clone(), "a", Mac::local(1).0, CopyDiscipline::ZeroCopy);
        let mut ga = UnikernelGuest::new(move |_env, rt| {
            let stack = Stack::spawn(rt, nh_a, StackConfig::static_ip(IP_A));
            guest_a(stack, rt.clone())
        });
        ga.add_device(front_a);
        let dom_a = hv.create_domain("guest-a", 64, Box::new(ga));

        let (front_b, nh_b) = Backend::XenRing.net(xs.clone(), "b", Mac::local(2).0, CopyDiscipline::ZeroCopy);
        let mut gb = UnikernelGuest::new(move |_env, rt| {
            let stack = Stack::spawn(rt, nh_b, StackConfig::static_ip(IP_B));
            guest_b(stack, rt.clone())
        });
        gb.add_device(front_b);
        let dom_b = hv.create_domain("guest-b", 64, Box::new(gb));

        (hv, dom0, dom_a, dom_b)
    }

    #[test]
    fn ping_round_trips_through_the_switch() {
        let (mut hv, dom_a, _dom_b) = two_stack_world(
            |stack, rt| {
                rt.clone().spawn(async move {
                    // B needs a moment to come up before we ARP for it.
                    rt.sleep(Dur::millis(5)).await;
                    let rtt = stack.ping(IP_B).await.expect("reply");
                    assert!(rtt > Dur::ZERO);
                    0
                })
            },
            |_stack, rt| rt.clone().spawn(async move {
                rt.sleep(Dur::secs(2)).await;
                0
            }),
        );
        hv.run_until(Time::ZERO + Dur::secs(10));
        assert_eq!(hv.exit_code(dom_a), Some(0));
    }

    #[test]
    fn udp_echo_between_stacks() {
        let (mut hv, dom_a, dom_b) = two_stack_world(
            |stack, rt| {
                rt.clone().spawn(async move {
                    rt.sleep(Dur::millis(5)).await;
                    let mut sock = stack.udp_bind(9999).await.unwrap();
                    sock.send_to(IP_B, 53, b"query".to_vec());
                    let (src, sport, data) = sock.recv_from().await.unwrap();
                    assert_eq!(src, IP_B);
                    assert_eq!(sport, 53);
                    assert_eq!(data, b"QUERY");
                    0
                })
            },
            |stack, rt| {
                rt.clone().spawn(async move {
                    let mut sock = stack.udp_bind(53).await.unwrap();
                    let (src, sport, data) = sock.recv_from().await.unwrap();
                    let upper: Vec<u8> = data.iter().map(|b| b.to_ascii_uppercase()).collect();
                    sock.send_to(src, sport, upper);
                    0
                })
            },
        );
        hv.run_until(Time::ZERO + Dur::secs(10));
        assert_eq!(hv.exit_code(dom_a), Some(0), "client finished");
        assert_eq!(hv.exit_code(dom_b), Some(0), "server finished");
    }

    /// A datagram no frame can carry (its UDP and IPv4 length fields would
    /// wrap, or it would be built only for the device to drop it) never
    /// reaches the wire, and does not disturb the datagram behind it.
    #[test]
    fn oversized_datagrams_never_reach_the_wire() {
        const TAP_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);
        let tap = Tap::new(Mac::local(9).0);
        let (mut hv, dom0, dom_a, dom_b) = tapped_world(
            Some(tap.clone()),
            |stack, rt| {
                rt.clone().spawn(async move {
                    rt.sleep(Dur::millis(5)).await;
                    let sock = stack.udp_bind(9999).await.unwrap();
                    for dst in [TAP_IP, IP_B] {
                        sock.send_to(dst, 53, vec![0; 70_000]);
                        sock.send_to(dst, 53, vec![0; 5_000]);
                        sock.send_to(dst, 53, vec![7; 100]);
                    }
                    rt.sleep(Dur::secs(1)).await;
                    0
                })
            },
            |stack, rt| {
                rt.clone().spawn(async move {
                    let mut sock = stack.udp_bind(53).await.unwrap();
                    let (_, _, data) = sock.recv_from().await.unwrap();
                    assert_eq!(
                        data,
                        vec![7; 100],
                        "the first to arrive is the one that fits"
                    );
                    0
                })
            },
        );
        hv.run_until(Time::ZERO + Dur::millis(100));
        // A asked who has the tap's address: answer, and see what A sends.
        let is_ipv4 = |f: &PktBuf| {
            ethernet::Frame::parse(f).is_some_and(|eth| eth.ethertype == ethernet::EtherType::Ipv4)
        };
        assert!(!tap.harvest().iter().any(is_ipv4), "nothing but ARP so far");
        let is_at = arp::ArpPacket {
            op: arp::ArpOp::Reply,
            sha: Mac::local(9),
            spa: TAP_IP,
            tha: Mac::local(1),
            tpa: IP_A,
        };
        let mut reply = vec![0; ethernet::HEADER_LEN + arp::ARP_LEN];
        ethernet::write_header(
            &mut reply,
            Mac::local(1),
            Mac::local(9),
            ethernet::EtherType::Arp,
        );
        is_at.write(&mut reply[ethernet::HEADER_LEN..]);
        tap.inject(reply);
        hv.wake_external(dom0);
        hv.run_until(Time::ZERO + Dur::secs(2));
        let datagrams: Vec<PktBuf> = tap.harvest().into_iter().filter(is_ipv4).collect();
        assert_eq!(datagrams.len(), 1, "one datagram reached the wire");
        let ip = ipv4::Ipv4Packet::parse(&datagrams[0][ethernet::HEADER_LEN..]).unwrap();
        let dgram = udp::UdpDatagram::parse(ip.src, ip.dst, ip.payload).unwrap();
        assert_eq!(dgram.payload, vec![7; 100]);
        assert_eq!(hv.exit_code(dom_a), Some(0));
        assert_eq!(hv.exit_code(dom_b), Some(0));
    }

    #[test]
    fn tcp_connect_transfer_close() {
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let (mut hv, dom_a, dom_b) = two_stack_world(
            move |stack, rt| {
                rt.clone().spawn(async move {
                    rt.sleep(Dur::millis(5)).await;
                    let stream = stack.tcp_connect(IP_B, 80).await.expect("connected");
                    stream.write(&payload);
                    stream.close();
                    // Await the server's one-byte confirmation.
                    let mut stream = stream;
                    let confirm = stream.read().await;
                    assert_eq!(confirm.as_deref(), Some(&b"K"[..]));
                    0
                })
            },
            move |stack, rt| {
                rt.clone().spawn(async move {
                    let mut listener = stack.tcp_listen(80).await.unwrap();
                    let mut stream = listener.accept().await.unwrap();
                    let got = stream.read_to_end().await;
                    assert_eq!(got, expect, "bulk data intact through full stack");
                    stream.write(b"K");
                    stream.close();
                    got.len() as i64
                })
            },
        );
        hv.run_until(Time::ZERO + Dur::secs(30));
        assert_eq!(hv.exit_code(dom_a), Some(0));
        assert_eq!(hv.exit_code(dom_b), Some(200_000));
    }

    #[test]
    fn data_arriving_during_wait_closed_is_read_back_as_the_views_that_arrived() {
        let payload: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let (mut hv, dom_a, _dom_b) = two_stack_world(
            move |stack, rt| {
                rt.clone().spawn(async move {
                    rt.sleep(Dur::millis(5)).await;
                    let mut stream = stack.tcp_connect(IP_B, 80).await.expect("connected");
                    // Close first and wait out the teardown without reading:
                    // everything the peer sends meanwhile is late data.
                    stream.close();
                    stream.wait_closed().await;
                    let mut chunks = Vec::new();
                    while let Some(chunk) = stream.read().await {
                        chunks.push(chunk);
                    }
                    assert!(chunks.len() > 1, "one view per segment, not one merged buffer");
                    let got: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
                    assert_eq!(got, expect);
                    0
                })
            },
            move |stack, rt| {
                rt.clone().spawn(async move {
                    let mut listener = stack.tcp_listen(80).await.unwrap();
                    let mut stream = listener.accept().await.unwrap();
                    stream.write(&payload);
                    stream.close();
                    stream.wait_closed().await;
                    0
                })
            },
        );
        hv.run_until(Time::ZERO + Dur::secs(30));
        assert_eq!(hv.exit_code(dom_a), Some(0));
    }

    #[test]
    fn connect_to_closed_port_is_refused() {
        let (mut hv, dom_a, _dom_b) = two_stack_world(
            |stack, rt| {
                rt.clone().spawn(async move {
                    rt.sleep(Dur::millis(5)).await;
                    match stack.tcp_connect(IP_B, 4444).await {
                        Err(NetError::Refused) => 0,
                        other => {
                            let _ = other;
                            1
                        }
                    }
                })
            },
            |_stack, rt| rt.clone().spawn(async move {
                rt.sleep(Dur::secs(5)).await;
                0
            }),
        );
        hv.run_until(Time::ZERO + Dur::secs(10));
        assert_eq!(hv.exit_code(dom_a), Some(0), "RST produced Refused");
    }

    #[test]
    fn dhcp_configures_a_guest_from_a_dhcp_server_appliance() {
        let xs = Xenstore::new();
        let mut hv = Hypervisor::new();
        hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

        // DHCP server appliance with a static address.
        let (front_s, nh_s) = Backend::XenRing.net(xs.clone(), "srv", Mac::local(10).0, CopyDiscipline::ZeroCopy);
        let mut server = UnikernelGuest::new(move |_env, rt| {
            let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(Ipv4Addr::new(10, 0, 0, 1)));
            rt.spawn(async move {
                let mut srv = dhcp::Server::new(
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(255, 255, 255, 0),
                    Some(Ipv4Addr::new(10, 0, 0, 1)),
                    Ipv4Addr::new(10, 0, 0, 50),
                    Ipv4Addr::new(10, 0, 0, 60),
                );
                let mut sock = stack.udp_bind(67).await.unwrap();
                loop {
                    let Ok((_src, _sport, data)) = sock.recv_from().await else {
                        break;
                    };
                    if let Some(reply) = srv.on_message(&data) {
                        sock.send_to(Ipv4Addr::BROADCAST, 68, reply);
                    }
                }
                0i64
            })
        });
        server.add_device(front_s);
        hv.create_domain("dhcp-server", 64, Box::new(server));

        // Client with dynamic configuration.
        let (front_c, nh_c) = Backend::XenRing.net(xs.clone(), "cli", Mac::local(11).0, CopyDiscipline::ZeroCopy);
        let mut client = UnikernelGuest::new(move |_env, rt| {
            let stack = Stack::spawn(rt, nh_c, StackConfig::dhcp());
            rt.clone().spawn(async move {
                let ip = stack.wait_ready().await;
                assert_eq!(ip, Ipv4Addr::new(10, 0, 0, 50), "first pool address");
                0
            })
        });
        client.add_device(front_c);
        let cdom = hv.create_domain("dhcp-client", 64, Box::new(client));

        hv.run_until(Time::ZERO + Dur::secs(30));
        assert_eq!(hv.exit_code(cdom), Some(0));
    }

    #[test]
    fn many_concurrent_tcp_connections() {
        let n = 8usize;
        let (mut hv, dom_a, dom_b) = two_stack_world(
            move |stack, rt| {
                let rt2 = rt.clone();
                rt.spawn(async move {
                    rt2.sleep(Dur::millis(5)).await;
                    let mut handles = Vec::new();
                    for i in 0..n {
                        let stack = stack.clone();
                        handles.push(rt2.spawn(async move {
                            let mut s = stack.tcp_connect(IP_B, 7000).await.expect("connect");
                            let msg = format!("hello-{i}");
                            s.write(msg.as_bytes());
                            s.close();
                            let echo = s.read_to_end().await;
                            assert_eq!(echo, msg.as_bytes());
                            1i64
                        }));
                    }
                    let mut total = 0;
                    for h in handles {
                        total += h.await;
                    }
                    total
                })
            },
            move |stack, rt| {
                let rt2 = rt.clone();
                rt.spawn(async move {
                    let mut listener = stack.tcp_listen(7000).await.unwrap();
                    let mut handlers = Vec::new();
                    for _ in 0..n {
                        let mut s = listener.accept().await.unwrap();
                        handlers.push(rt2.spawn(async move {
                            let data = s.read_to_end().await;
                            s.write(&data);
                            s.close();
                            s.wait_closed().await;
                        }));
                    }
                    // The VM must stay up until every echo is flushed —
                    // exiting kills in-flight connections (as on real Xen).
                    let mut served = 0i64;
                    for h in handlers {
                        h.await;
                        served += 1;
                    }
                    served
                })
            },
        );
        hv.run_until(Time::ZERO + Dur::secs(60));
        assert_eq!(hv.exit_code(dom_a), Some(n as i64));
        assert_eq!(hv.exit_code(dom_b), Some(n as i64));
    }
}
