//! `dns_udp`: a memoizing `DnsServer` over a 10 000-entry synthetic zone;
//! one resolver domain keeps 16 queries outstanding over UDP on the Xen
//! ring. Names are Zipf(1.0) over the zone plus 5 % that do not exist.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mirage::devices::{Backend, DriverDomain, Xenstore};
use mirage::dns::{DnsName, DnsServer, Message, RData, RType, Rcode, ServerConfig, Zone};
use mirage::hypervisor::{Dur, Hypervisor, Time};
use mirage::net::stack::StackStats;
use mirage::net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage::runtime::channel;
use mirage::runtime::UnikernelGuest;
use mirage_testkit::rng::Rng;

use crate::hist::Histogram;
use crate::span;
use crate::world::{
    observable_net, Control, Gate, Measured, Outcome, Sources, Window, Windows, World, Zipf,
};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);
const ORIGIN: &str = "bench.example";
pub const ZONE_ENTRIES: usize = 10_000;
/// Queries per repetition.
pub const QUERIES: usize = 80_000;
const OUTSTANDING: usize = 16;

struct Pending {
    id: u16,
    issued: Time,
    open: span::Open,
    name: DnsName,
    wire_len: usize,
}

pub fn build(seed: u64) -> World {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(400_000_000);
    let dom0 = DriverDomain::new(xs.clone());
    let mut sources = Sources {
        driver: Some(dom0.stats_handle()),
        ..Sources::default()
    };
    hv.create_domain("dom0", 512, Box::new(dom0));

    let control = Arc::new(Control::default());
    let result: Arc<Mutex<Option<Measured>>> = Arc::new(Mutex::new(None));
    let stacks: Arc<Mutex<Vec<StackStats>>> = Arc::new(Mutex::new(Vec::new()));
    // Built once on the host thread; the server answers from it and the
    // resolver checks every answer against a direct lookup in its clone.
    let zone = Zone::synthesize(ORIGIN, ZONE_ENTRIES);
    let server = Arc::new(DnsServer::new(zone.clone(), ServerConfig::default()));

    // `DnsServer::serve_udp` consumes the server and with it the counters;
    // this is its loop, verbatim, over a shared handle.
    let (driver_s, mut handles_s, probes_s) =
        observable_net(Backend::XenRing, &xs, "dns0", Mac::local(53).0, 1);
    sources.nets.extend(probes_s);
    let (srv_report_tx, mut srv_report) = channel::channel::<()>();
    let (ctl, srv, stk) = (
        Arc::clone(&control),
        Arc::clone(&server),
        Arc::clone(&stacks),
    );
    let reported = Arc::clone(&control);
    let mut appliance = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, handles_s.remove(0), StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        let serving = stack.clone();
        rt.spawn(async move {
            let mut sock = serving.udp_bind(53).await.expect("port 53");
            ctl.mark_ready();
            loop {
                let Ok((src, sport, query)) = sock.recv_from().await else {
                    return;
                };
                if let Some(answer) = srv.answer(&query) {
                    sock.send_to(src, sport, answer);
                }
            }
        });
        rt.spawn(async move {
            let _ = srv_report.recv().await;
            if let Ok(s) = stack.stack_stats().await {
                stk.lock().expect("stacks").push(s);
            }
            reported.mark_reported();
            loop {
                rt2.sleep(Dur::secs(3600)).await;
            }
        })
    });
    appliance.add_device(driver_s);
    sources.runtimes.push(appliance.runtime().clone());
    let srv_dom = hv.create_domain("dns-appliance", 32, Box::new(appliance));

    let (driver_c, mut handles_c, probes_c) =
        observable_net(Backend::XenRing, &xs, "resolver", Mac::local(9).0, 1);
    sources.nets.extend(probes_c);
    let (start_tx, mut start) = channel::channel::<()>();
    let (cli_report_tx, mut cli_report) = channel::channel::<()>();
    let (ctl, res, stk) = (
        Arc::clone(&control),
        Arc::clone(&result),
        Arc::clone(&stacks),
    );
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, handles_c.remove(0), StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut sock = stack.udp_bind(40_000).await.expect("bind");
            let zipf = Zipf::new(ZONE_ENTRIES);
            let mut rng = Rng::for_stream(seed, "dns_udp");
            ctl.mark_ready();
            let _ = start.recv().await;

            let mut m = Measured::default();
            let mut lat = Histogram::new();
            let (virt_start, wall_start) = (rt2.now(), Instant::now());
            let mut windows = Windows::new(QUERIES as u64);
            let mut pending: VecDeque<Pending> = VecDeque::with_capacity(OUTSTANDING);
            let mut issued = 0usize;
            while m.attempted < QUERIES as u64 {
                while issued < QUERIES && pending.len() < OUTSTANDING {
                    let host = if rng.gen_range(0u32..20) == 0 {
                        format!("nx{}.{ORIGIN}", rng.gen_range(0u32..1_000))
                    } else {
                        format!("host{}.{ORIGIN}", zipf.sample(&mut rng))
                    };
                    let name = DnsName::parse(&host).expect("valid name");
                    let id = issued as u16;
                    let wire = Message::query(id, name.clone(), RType::A).encode();
                    let now = rt2.now();
                    pending.push_back(Pending {
                        id,
                        issued: now,
                        open: span::open_root(span::OP, now),
                        name,
                        wire_len: wire.len(),
                    });
                    sock.send_to(SERVER_IP, 53, wire);
                    issued += 1;
                }
                let Ok((_, _, wire)) = sock.recv_from().await else {
                    break;
                };
                let now = rt2.now();
                let reply = Message::parse(&wire).ok();
                // The server answers in order; anything else is a failure
                // of the oldest query.
                let Some(p) = pending.pop_front() else { break };
                let ok = reply.is_some_and(|r| r.id == p.id && answer_matches(&zone, &p.name, &r));
                p.open.close(now);
                lat.record(now.saturating_since(p.issued).as_nanos());
                m.attempted += 1;
                m.failed += u64::from(!ok);
                m.payload_bytes += (p.wire_len + wire.len()) as u64;
                windows.advance(1);
            }
            m.window_ns = windows.finish();
            Window {
                virt_start,
                virt_end: rt2.now(),
                wall_start,
                wall_end: Instant::now(),
            }
            .write_into(&mut m);
            m.lat = lat;
            *res.lock().expect("result") = Some(m);
            ctl.mark_done();
            let _ = cli_report.recv().await;
            if let Ok(s) = stack.stack_stats().await {
                stk.lock().expect("stacks").push(s);
            }
            ctl.mark_reported();
            loop {
                rt2.sleep(Dur::secs(3600)).await;
            }
        })
    });
    client.add_device(driver_c);
    sources.runtimes.push(client.runtime().clone());
    let cli_dom = hv.create_domain("resolver", 32, Box::new(client));

    World {
        hv,
        control,
        ready_target: 2,
        done_target: 1,
        start: vec![Gate::new(start_tx, cli_dom)],
        report: vec![
            Gate::new(srv_report_tx, srv_dom),
            Gate::new(cli_report_tx, cli_dom),
        ],
        sources,
        finish: Box::new(move || {
            let s = server.stats();
            Outcome {
                measured: result.lock().expect("result").take().unwrap_or_default(),
                stacks: std::mem::take(&mut *stacks.lock().expect("stacks")),
                dns: Some((s.queries, s.memo_hits, s.malformed)),
                ..Outcome::default()
            }
        }),
    }
}

/// Whether `reply` is what a direct zone lookup of `name`/A gives: the
/// same addresses with `NoError`, or `NxDomain` for a name not in the zone.
fn answer_matches(zone: &Zone, name: &DnsName, reply: &Message) -> bool {
    let expected = zone.lookup(name, RType::A);
    if expected.is_empty() {
        return reply.rcode == Rcode::NxDomain && reply.answers.is_empty();
    }
    let got: Vec<&RData> = reply.answers.iter().map(|r| &r.rdata).collect();
    let want: Vec<&RData> = expected.iter().map(|r| &r.rdata).collect();
    reply.rcode == Rcode::NoError && got == want
}
