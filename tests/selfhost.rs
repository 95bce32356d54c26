//! The self-hosting scenario (paper §3.5: the Mirage libraries are
//! "sufficient to self-host our website infrastructure, including wiki,
//! blog and DNS servers"): one simulated cloud running a DNS appliance and
//! a web appliance, and a client that resolves the site's name via DNS and
//! then fetches the page over HTTP — every byte through the full
//! Ethernet/IP/UDP/TCP stacks and the Xen device fabric.

use mirage::devices::netfront::CopyDiscipline;

use mirage::devices::Backend;
use mirage::devices::{DriverDomain, Xenstore};
use mirage::dns::{DnsName, DnsServer, Message, RData, RType, Rcode, ServerConfig, Zone};
use mirage::http::{client, HandlerFuture, HttpServer, Request, Response, Router};
use mirage::hypervisor::{Dur, Hypervisor, Time};
use mirage::net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage::runtime::UnikernelGuest;

const DNS_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
const WEB_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 80);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

#[test]
fn resolve_then_fetch_through_two_appliances() {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    // DNS appliance: example.org with www -> 10.0.0.80.
    let (front_d, nh_d) = Backend::XenRing.net(xs.clone(), "dns", Mac::local(53).0, CopyDiscipline::ZeroCopy);
    let mut dns = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_d, StackConfig::static_ip(DNS_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let zone = Zone::parse(
                "$ORIGIN example.org.\n$TTL 60\n@ IN SOA ns1 h 1\n@ IN NS ns1\nns1 IN A 10.0.0.53\nwww IN A 10.0.0.80\n",
            )
            .unwrap();
            let server = DnsServer::new(zone, ServerConfig::default());
            let sock = stack.udp_bind(53).await.unwrap();
            server.serve_udp(rt2, sock).await
        })
    });
    dns.add_device(front_d);
    hv.create_domain("dns", 32, Box::new(dns));

    // Web appliance serving the site.
    let (front_w, nh_w) = Backend::XenRing.net(xs.clone(), "web", Mac::local(80).0, CopyDiscipline::ZeroCopy);
    let mut web = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_w, StackConfig::static_ip(WEB_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let router = Router::new().get("/", |_req: Request| -> HandlerFuture {
                Box::pin(async { Response::ok("text/html", b"<h1>openmirage.org</h1>".to_vec()) })
            });
            let listener = stack.tcp_listen(80).await.unwrap();
            HttpServer::new(router).serve(rt2, listener).await
        })
    });
    web.add_device(front_w);
    hv.create_domain("web", 32, Box::new(web));

    // The visitor: DNS lookup, then HTTP GET from the resolved address.
    let (front_c, nh_c) = Backend::XenRing.net(xs.clone(), "cli", Mac::local(9).0, CopyDiscipline::ZeroCopy);
    let mut visitor = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            // Resolve www.example.org.
            let mut sock = stack.udp_bind(33000).await.unwrap();
            let q = Message::query(7, DnsName::parse("www.example.org").unwrap(), RType::A);
            sock.send_to(DNS_IP, 53, q.encode());
            let (_, _, wire) = sock.recv_from().await.unwrap();
            let r = Message::parse(&wire).unwrap();
            assert_eq!(r.rcode, Rcode::NoError);
            let RData::A(web_ip) = r.answers[0].rdata else {
                panic!("expected an A record, got {:?}", r.answers[0].rdata);
            };
            assert_eq!(web_ip, WEB_IP, "DNS steered us to the web appliance");
            // Fetch the page from the *resolved* address.
            let resp = client::get(&stack, web_ip, 80, "/").await.unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, b"<h1>openmirage.org</h1>");
            0
        })
    });
    visitor.add_device(front_c);
    let vdom = hv.create_domain("visitor", 32, Box::new(visitor));

    hv.run_until(Time::ZERO + Dur::secs(30));
    assert_eq!(hv.exit_code(vdom), Some(0), "resolve-then-fetch completed");
    assert_eq!(
        hv.stats().grant_copies,
        0,
        "the unikernel data path never used a hypervisor copy (§3.4.1)"
    );
}

#[test]
fn six_scaled_out_unikernels_serve_concurrently() {
    // Figure 13's topology: six single-vCPU web unikernels behind one
    // client hammering them round-robin.
    let xs = Xenstore::new();
    let mut hv = Hypervisor::with_pcpus(6);
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    for i in 0..6u32 {
        let ip = Ipv4Addr::new(10, 0, 1, (10 + i) as u8);
        let (front, nh) = Backend::XenRing.net(
            xs.clone(),
            format!("w{i}"),
            Mac::local(100 + i).0,
            CopyDiscipline::ZeroCopy,
        );
        let mut web = UnikernelGuest::new(move |_env, rt| {
            let stack = Stack::spawn(rt, nh, StackConfig::static_ip(ip));
            let rt2 = rt.clone();
            rt.spawn(async move {
                let router = Router::new().get("/", move |_req: Request| -> HandlerFuture {
                    Box::pin(async move {
                        Response::ok("text/plain", format!("unikernel-{i}").into_bytes())
                    })
                });
                let listener = stack.tcp_listen(80).await.unwrap();
                HttpServer::new(router).serve(rt2, listener).await
            })
        });
        web.add_device(front);
        hv.create_domain(format!("web{i}"), 32, Box::new(web));
    }

    let (front_c, nh_c) = Backend::XenRing.net(xs.clone(), "lb", Mac::local(200).0, CopyDiscipline::ZeroCopy);
    let mut lb = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(Ipv4Addr::new(10, 0, 1, 1)));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut served = 0i64;
            for round in 0..3 {
                for i in 0..6u32 {
                    let ip = Ipv4Addr::new(10, 0, 1, (10 + i) as u8);
                    let resp = client::get(&stack, ip, 80, "/").await.unwrap();
                    assert_eq!(resp.status, 200);
                    assert_eq!(resp.body, format!("unikernel-{i}").into_bytes());
                    served += 1;
                    let _ = round;
                }
            }
            served
        })
    });
    lb.add_device(front_c);
    let lbdom = hv.create_domain("loadgen", 32, Box::new(lb));

    hv.run_until(Time::ZERO + Dur::secs(60));
    assert_eq!(hv.exit_code(lbdom), Some(18), "3 rounds x 6 unikernels");
}
