//! `tcp_bulk`, `tcp_fan16`, `tcp_lossy`: bulk flows sender → receiver
//! through the switch, the shape of `mirage_bench::netsim::iperf{,_smp}`
//! with the Mirage→Mirage endpoint profiles charged per segment.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mirage::baseline::netperf::TcpEndpoint;
use mirage::devices::{
    Backend, DiskProfile, DriverDomain, NetProfile, Netem, NetemConfig, Xenstore,
};
use mirage::hypervisor::{CostTable, Dur, Hypervisor, Time};
use mirage::net::stack::StackStats;
use mirage::net::tcp::{TcpConfig, TcpStats};
use mirage::net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage::runtime::channel;
use mirage::runtime::UnikernelGuest;
use mirage_testkit::rng::Rng;

use crate::hist::Histogram;
use crate::span;
use crate::world::{
    add_tcp, observable_net, Control, Digest, Gate, Outcome, Sources, Window, Windows, World, MSS,
};

const TX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 5001;

/// Bytes between two latency samples: one nominal write.
const CHUNK: u64 = 16 * 1024;
/// Writes are `WRITE_MIN + [0, WRITE_SPAN]` bytes, 16 KiB on average; the
/// seed picks each size, so no two seeds segment the stream alike.
const WRITE_MIN: usize = 12 * 1024;
const WRITE_SPAN: usize = 8 * 1024;
/// Size of the seeded block the writes are sliced from.
const BLOCK: usize = 2 * 1024 * 1024;
/// The sender blocks like a socket with this much send buffer: the
/// receiving task returns one credit byte per [`CREDIT`] bytes consumed
/// and the sender stops writing while this much is uncredited. A sender
/// that never blocks (`TcpStream::write` never does) runs its whole write
/// phase inside one guest step, in which its own NIC is not serviced once.
const SEND_BUFFER: u64 = 256 * 1024;
const CREDIT: u64 = 64 * 1024;

#[derive(Clone, Copy)]
pub struct Shape {
    pub flows: usize,
    pub bytes_per_flow: usize,
    /// The `iperf_smp(.., 1, flows, ..)` host: four pCPUs, a 2-vCPU dom0
    /// and a 40 GbE fabric (1-vCPU guests are the same either way).
    pub smp_host: bool,
    /// 1 % loss, 2 ms ± 0.5 ms delay, 1 % reorder on every frame.
    pub lossy: bool,
}

/// What one end of one flow saw.
struct FlowEnd {
    /// `(bytes, digest)`; every flow's stream is its own seeded draw, so
    /// the digest also identifies the flow across the two ends.
    digest: (u64, u64),
    stats: TcpStats,
}

#[derive(Default)]
struct Results {
    sent: Vec<FlowEnd>,
    received: Vec<FlowEnd>,
    lat: Histogram,
    /// When the start gate opened at the sender.
    opened: Option<(Time, Instant)>,
    /// When the last flow's last byte reached the receiving task.
    delivered: Option<(Time, Instant)>,
    stacks: Vec<StackStats>,
}

fn stack_cfg(ip: Ipv4Addr) -> StackConfig {
    // A 64 KiB advertised window per flow keeps aggregate in-flight data
    // inside the switch's queueing budget, as the paper's 64-slot rings do.
    let tcp = TcpConfig::builder()
        .recv_buf(64 * 1024)
        .build()
        .expect("valid tcp config");
    StackConfig::builder(ip)
        .tcp(tcp)
        .build()
        .expect("valid stack config")
}

pub fn build(shape: Shape, seed: u64) -> World {
    let costs = CostTable::defaults();
    // The shared state-machine work plus the endpoint profile, per segment.
    let shared = Dur::micros(5) + costs.copy(MSS / 8);
    let profile = TcpEndpoint::Mirage.profile(&costs);
    let tx_per_seg = shared + profile.tx_per_segment;
    let rx_per_seg = shared + profile.rx_per_segment;
    let Shape {
        flows,
        bytes_per_flow,
        smp_host,
        lossy,
    } = shape;

    let xs = Xenstore::new();
    let mut hv = if smp_host {
        Hypervisor::with_pcpus(4)
    } else {
        Hypervisor::new()
    };
    hv.set_step_budget(400_000_000);
    let fabric = if smp_host {
        NetProfile::forty_gbe()
    } else {
        NetProfile::ten_gbe()
    };
    let mut dom0 = DriverDomain::with_profiles(xs.clone(), fabric, DiskProfile::pcie_ssd());
    let mut sources = Sources {
        driver: Some(dom0.stats_handle()),
        ..Sources::default()
    };
    if lossy {
        let netem = Netem::from_seed(
            NetemConfig {
                drop: 0.01,
                reorder: 0.01,
                reorder_hold: Dur::millis(1),
                delay: Dur::micros(1_500),
                jitter: Dur::millis(1),
                ..NetemConfig::default()
            },
            seed,
            "tcp_lossy",
        );
        sources.netem = Some(netem.stats_handle());
        dom0.set_netem(netem);
    }
    hv.create_domain_vcpus("dom0", 512, Box::new(dom0), if smp_host { 2 } else { 1 });

    let control = Arc::new(Control::default());
    let results = Arc::new(Mutex::new(Results::default()));
    // Per flow, when the sender wrote the byte at each 16 KiB mark; the
    // receiving task turns them into write → read delivery delays.
    let written_at: Arc<Vec<Mutex<VecDeque<Time>>>> =
        Arc::new((0..flows).map(|_| Mutex::new(VecDeque::new())).collect());
    // Host-clock windows over the bytes delivered, all flows together.
    let windows = Arc::new(Mutex::new(Windows::new((flows * bytes_per_flow) as u64)));

    // Receiver: accepts every flow, digests what arrives, samples the time
    // each further 16 KiB took, returns one credit byte per 64 KiB.
    let (driver_rx, mut handles_rx, probes_rx) =
        observable_net(Backend::XenRing, &xs, "rx", Mac::local(2).0, 1);
    sources.nets.extend(probes_rx);
    let (rx_report_tx, mut rx_report) = channel::channel::<()>();
    let (ctl, res, marks) = (
        Arc::clone(&control),
        Arc::clone(&results),
        Arc::clone(&written_at),
    );
    let delivered_windows = Arc::clone(&windows);
    let mut rx_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, handles_rx.remove(0), stack_cfg(RX_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(PORT).await.expect("listen");
            ctl.mark_ready();
            let mut tasks = Vec::new();
            for _ in 0..flows {
                let mut stream = listener.accept().await.expect("accept");
                let (rt3, marks, windows) = (
                    rt2.clone(),
                    Arc::clone(&marks),
                    Arc::clone(&delivered_windows),
                );
                tasks.push(rt2.spawn(async move {
                    // Accept order need not be connect order: the stream's
                    // first byte names the sender's flow.
                    let mut flow = None;
                    let mut digest = Digest::default();
                    let mut lat = Histogram::new();
                    let mut got = 0u64;
                    let mut next_mark = CHUNK;
                    let mut next_credit = CREDIT;
                    let mut op = span::open_root(span::OP, rt3.now());
                    // The instant this task's own charges run to: the
                    // runtime's clock moves on by them before any waiting
                    // starts, so they are the task's time, not the wait's.
                    let mut own_until = rt3.now();
                    while got < bytes_per_flow as u64 {
                        let wait_from = rt3.now().max(own_until);
                        let Some(chunk) = stream.read().await else {
                            break;
                        };
                        let now = rt3.now();
                        // A read that found data queued waited for nothing.
                        if now > wait_from {
                            span::open(span::APP_READ_WAIT, op.id(), op.id(), wait_from).close(now);
                        }
                        let segs = chunk.len().div_ceil(MSS) as u64;
                        let own = Dur::nanos(rx_per_seg.as_nanos() * segs);
                        rt3.charge(own);
                        own_until = own_until.max(now) + own;
                        digest.update(&chunk);
                        got += chunk.len() as u64;
                        windows.lock().expect("windows").advance(chunk.len() as u64);
                        let flow = *flow.get_or_insert(chunk[0] as usize % flows);
                        while got >= next_credit {
                            stream.write(&[0]);
                            next_credit += CREDIT;
                        }
                        while got >= next_mark {
                            let written = marks[flow].lock().expect("marks").pop_front();
                            lat.record(now.saturating_since(written.unwrap_or(now)).as_nanos());
                            op.close(now);
                            op = span::open_root(span::OP, now);
                            next_mark += CHUNK;
                        }
                    }
                    let delivered = (rt3.now(), Instant::now());
                    let stats = stream.stats().await.unwrap_or_default();
                    // Hold the stream until the sender closes: dropping
                    // it would close under the last credit.
                    while stream.read().await.is_some() {}
                    (
                        FlowEnd {
                            digest: digest.finish(),
                            stats,
                        },
                        lat,
                        delivered,
                    )
                }));
            }
            for t in tasks {
                let (end, lat, delivered) = t.await;
                let mut r = res.lock().expect("results");
                r.received.push(end);
                r.lat.merge(&lat);
                r.delivered = r.delivered.max(Some(delivered));
            }
            ctl.mark_done();
            let _ = rx_report.recv().await;
            if let Ok(s) = stack.stack_stats().await {
                res.lock().expect("results").stacks.push(s);
            }
            ctl.mark_reported();
            // Never exit: a dead domain takes its connections with it.
            loop {
                rt2.sleep(Dur::secs(3600)).await;
            }
        })
    });
    rx_guest.add_device(driver_rx);
    sources.runtimes.push(rx_guest.runtime().clone());
    let rx_dom = hv.create_domain("tcp-rx", 128, Box::new(rx_guest));

    // Sender: every flow writes seeded slices of one seeded block.
    let (driver_tx, mut handles_tx, probes_tx) =
        observable_net(Backend::XenRing, &xs, "tx", Mac::local(1).0, 1);
    sources.nets.extend(probes_tx);
    let (start_tx, mut start) = channel::channel::<()>();
    let (tx_report_tx, mut tx_report) = channel::channel::<()>();
    let (ctl, res, marks) = (Arc::clone(&control), Arc::clone(&results), written_at);
    let opened_windows = Arc::clone(&windows);
    let mut tx_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, handles_tx.remove(0), stack_cfg(TX_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut block = vec![0u8; BLOCK];
            Rng::for_stream(seed, "tcp-payload").fill_bytes(&mut block);
            let block = Arc::new(block);
            ctl.mark_ready();
            let _ = start.recv().await;
            res.lock().expect("results").opened = Some((rt2.now(), Instant::now()));
            opened_windows.lock().expect("windows").start();
            let mut tasks = Vec::new();
            for flow in 0..flows {
                let (stack, rt3, block, marks) = (
                    stack.clone(),
                    rt2.clone(),
                    Arc::clone(&block),
                    Arc::clone(&marks),
                );
                tasks.push(rt2.spawn(async move {
                    let mut rng = Rng::for_stream(seed, &format!("tcp-flow-{flow}"));
                    let mut stream = stack.tcp_connect(RX_IP, PORT).await.expect("connect");
                    let mut digest = Digest::default();
                    let mut sent = 0usize;
                    let mut credited = 0u64;
                    let mut next_mark = CHUNK;
                    while sent < bytes_per_flow {
                        while sent as u64 - credited >= SEND_BUFFER {
                            let Some(credits) = stream.read().await else {
                                break;
                            };
                            credited += credits.len() as u64 * CREDIT;
                        }
                        let n =
                            (WRITE_MIN + rng.gen_range(0..=WRITE_SPAN)).min(bytes_per_flow - sent);
                        let at = rng.gen_range(0..=BLOCK - n);
                        let segs = n.div_ceil(MSS) as u64;
                        rt3.charge(Dur::nanos(tx_per_seg.as_nanos() * segs));
                        if sent == 0 {
                            let mut first = block[at..at + n].to_vec();
                            first[0] = flow as u8;
                            digest.update(&first);
                            stream.write(&first);
                        } else {
                            digest.update(&block[at..at + n]);
                            stream.write(&block[at..at + n]);
                        }
                        sent += n;
                        while sent as u64 >= next_mark {
                            marks[flow].lock().expect("marks").push_back(rt3.now());
                            next_mark += CHUNK;
                        }
                        // Yield so TCP can drain under flow control.
                        rt3.yield_now().await;
                    }
                    while credited < bytes_per_flow as u64 {
                        let Some(credits) = stream.read().await else {
                            break;
                        };
                        credited += credits.len() as u64 * CREDIT;
                    }
                    let stats = stream.stats().await.unwrap_or_default();
                    stream.close();
                    FlowEnd {
                        digest: digest.finish(),
                        stats,
                    }
                }));
            }
            for t in tasks {
                let end = t.await;
                res.lock().expect("results").sent.push(end);
            }
            ctl.mark_done();
            let _ = tx_report.recv().await;
            if let Ok(s) = stack.stack_stats().await {
                res.lock().expect("results").stacks.push(s);
            }
            ctl.mark_reported();
            loop {
                rt2.sleep(Dur::secs(3600)).await;
            }
        })
    });
    tx_guest.add_device(driver_tx);
    sources.runtimes.push(tx_guest.runtime().clone());
    let tx_dom = hv.create_domain("tcp-tx", 128, Box::new(tx_guest));

    assert_eq!(
        bytes_per_flow as u64 % CREDIT,
        0,
        "flows end on a credit (and latency-sample) boundary"
    );
    let total_bytes = (flows * bytes_per_flow) as u64;
    World {
        hv,
        control,
        ready_target: 2,
        done_target: 2,
        start: vec![Gate::new(start_tx, tx_dom)],
        report: vec![
            Gate::new(rx_report_tx, rx_dom),
            Gate::new(tx_report_tx, tx_dom),
        ],
        sources,
        finish: Box::new(move || {
            let mut r = std::mem::take(&mut *results.lock().expect("results"));
            let mut out = Outcome::default();
            let m = &mut out.measured;
            m.attempted = total_bytes.div_ceil(MSS as u64);
            m.payload_bytes = total_bytes;
            // A flow counts only if every byte arrived, in order, intact.
            let good_bytes: u64 = r
                .sent
                .iter()
                .filter(|sent| sent.digest.0 == bytes_per_flow as u64)
                .filter(|sent| r.received.iter().any(|got| got.digest == sent.digest))
                .map(|sent| sent.digest.0)
                .sum();
            m.failed = m.attempted - good_bytes.div_ceil(MSS as u64).min(m.attempted);
            if let (Some(opened), Some(delivered)) = (r.opened, r.delivered) {
                Window {
                    virt_start: opened.0,
                    virt_end: delivered.0,
                    wall_start: opened.1,
                    wall_end: delivered.1,
                }
                .write_into(m);
            }
            m.lat = std::mem::take(&mut r.lat);
            m.window_ns =
                std::mem::replace(&mut *windows.lock().expect("windows"), Windows::new(1)).finish();
            for end in r.sent.iter().chain(&r.received) {
                add_tcp(&mut out.tcp, &end.stats);
            }
            out.stacks = r.stacks;
            out
        }),
    }
}
