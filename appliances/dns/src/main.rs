//! The paper's flagship appliance (§4.2): an authoritative DNS server,
//! booted as a unikernel next to a resolver client, exchanging real DNS
//! over UDP/IP/Ethernet through the simulated Xen fabric.
//!
//! ```text
//! cargo run -p dns_appliance
//! ```

use mirage_devices::netfront::CopyDiscipline;

use mirage_devices::Backend;
use mirage_devices::{DriverDomain, Xenstore};
use mirage_dns::{DnsName, DnsServer, Message, RType, ServerConfig, Zone};
use mirage_hypervisor::{Dur, Hypervisor, Time};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage_runtime::UnikernelGuest;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

const ZONE: &str = r#"
$ORIGIN example.org.
$TTL 300
@     IN SOA   ns1 hostmaster 2013031601
@     IN NS    ns1
ns1   IN A     10.0.0.53
www   IN A     10.0.0.80
blog  IN CNAME www
mail  IN MX    10 mx1.example.org.
mx1   IN A     10.0.0.25
"#;

fn main() {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    // The DNS appliance: zone file + server + UDP loop, one unikernel.
    let (front, nh) = Backend::XenRing.net(xs.clone(), "dns0", Mac::local(53).0, CopyDiscipline::ZeroCopy);
    let mut appliance = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh, StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let zone = Zone::parse(ZONE).expect("zone file parses");
            println!("[dns] serving {} ({} records, memoized)", zone.origin(), zone.record_count());
            let server = DnsServer::new(zone, ServerConfig::default());
            let sock = stack.udp_bind(53).await.expect("port 53");
            server.serve_udp(rt2, sock).await
        })
    });
    appliance.add_device(front);
    hv.create_domain("dns-appliance", 32, Box::new(appliance));

    // A resolver asking a few questions.
    let (front_c, nh_c) = Backend::XenRing.net(xs.clone(), "cli0", Mac::local(9).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut sock = stack.udp_bind(40000).await.unwrap();
            for (id, name, rtype) in [
                (1u16, "www.example.org", RType::A),
                (2, "blog.example.org", RType::A),
                (3, "mail.example.org", RType::Mx),
                (4, "nope.example.org", RType::A),
            ] {
                let q = Message::query(id, DnsName::parse(name).unwrap(), rtype);
                sock.send_to(SERVER_IP, 53, q.encode());
                let (_, _, wire) = sock.recv_from().await.unwrap();
                let r = Message::parse(&wire).unwrap();
                println!(
                    "[resolver] {name} {:?} -> rcode={:?}, {} answer(s) in {} bytes",
                    rtype,
                    r.rcode,
                    r.answers.len(),
                    wire.len()
                );
                for a in &r.answers {
                    println!("[resolver]   {} ttl={} {:?}", a.name, a.ttl, a.rdata);
                }
            }
            0
        })
    });
    client.add_device(front_c);
    let cdom = hv.create_domain("resolver", 32, Box::new(client));

    hv.run_until(Time::ZERO + Dur::secs(10));
    assert_eq!(hv.exit_code(cdom), Some(0));
    println!(
        "[world] done at {} ({} event-channel notifications)",
        hv.now(),
        hv.stats().notifications
    );
}
