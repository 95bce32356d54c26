//! The full DNS appliance: zone file → server → UDP → stack → switch.

use mirage_dns::{DnsName, DnsServer, Message, RData, RType, Rcode, ServerConfig, Zone};
use mirage_devices::netfront::CopyDiscipline;
use mirage_devices::Backend;
use mirage_devices::{DriverDomain, Xenstore};
use mirage_hypervisor::{Dur, Hypervisor, Time};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage_runtime::UnikernelGuest;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

#[test]
fn dns_appliance_answers_over_the_wire() {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    // The DNS appliance.
    let (front_s, nh_s) =
        Backend::XenRing.net(xs.clone(), "dns", Mac::local(53).0, CopyDiscipline::ZeroCopy);
    let mut appliance = UnikernelGuest::new(move |env, rt| {
        env.observe("boot-start");
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

    // A resolver client.
    let (front_c, nh_c) =
        Backend::XenRing.net(xs.clone(), "cli", Mac::local(9).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut sock = stack.udp_bind(33333).await.unwrap();
            // Resolve host7, twice (second answer is memoized server-side).
            for id in [1u16, 2] {
                let q = Message::query(
                    id,
                    DnsName::parse("host7.example.org").unwrap(),
                    RType::A,
                );
                sock.send_to(SERVER_IP, 53, q.encode());
                let (_, _, wire) = sock.recv_from().await.unwrap();
                let r = Message::parse(&wire).unwrap();
                assert_eq!(r.id, id);
                assert_eq!(r.rcode, Rcode::NoError);
                assert_eq!(r.answers.len(), 1);
                assert!(matches!(r.answers[0].rdata, RData::A(_)));
            }
            // NXDOMAIN path.
            let q = Message::query(
                3,
                DnsName::parse("nope.example.org").unwrap(),
                RType::A,
            );
            sock.send_to(SERVER_IP, 53, q.encode());
            let (_, _, wire) = sock.recv_from().await.unwrap();
            assert_eq!(Message::parse(&wire).unwrap().rcode, Rcode::NxDomain);
            0
        })
    });
    client.add_device(front_c);
    let cdom = hv.create_domain("resolver", 32, Box::new(client));

    hv.run_until(Time::ZERO + Dur::secs(30));
    assert_eq!(hv.exit_code(cdom), Some(0));
}
