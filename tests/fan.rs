//! The fan-in regression lock: sixteen bulk flows between two 1-vCPU
//! unikernels must share the path about as well as one flow uses it.
//!
//! This is the benchmark's `tcp_fan16` shape in small — 16 × 512 KiB
//! through a 40 GbE switch, a sender that blocks like a socket with a
//! 256 KiB send buffer, the Mirage endpoint cost charged per segment —
//! and what it locks is the pair of properties whose absence made sixteen
//! flows slower than one: the sender emits full-sized segments (no
//! silly-window slivers), and the run loop reaches the NIC between the
//! senders' turns instead of after all of them have filled their buffers.

use std::hash::Hasher;
use std::sync::{Arc, Mutex};

use mirage::baseline::netperf::TcpEndpoint;
use mirage::devices::netfront::CopyDiscipline;
use mirage::devices::{Backend, DiskProfile, DriverDomain, NetProfile, Xenstore};
use mirage::hypervisor::{CostTable, Dur, Hypervisor, Time};
use mirage::net::tcp::TcpConfig;
use mirage::net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage::runtime::UnikernelGuest;
use mirage_testkit::hash::DetHasher;
use mirage_testkit::rng::Rng;

const TX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 5001;
const MSS: usize = 1460;
const BYTES_PER_FLOW: usize = 512 * 1024;
const WRITE: usize = 16 * 1024;
/// The sender stops writing while this much is uncredited; the receiver
/// returns one credit byte per [`CREDIT`] bytes consumed.
const SEND_BUFFER: usize = 256 * 1024;
const CREDIT: usize = 64 * 1024;

#[derive(Debug, PartialEq)]
struct FanReport {
    /// Payload bits delivered per virtual second, all flows together.
    goodput_mbps: f64,
    /// Segments the senders emitted per MSS of payload they carried.
    segs_per_mss: f64,
    /// Per-flow stream digests as written and as read, sorted.
    sent: Vec<u64>,
    received: Vec<u64>,
}

fn stack_cfg(ip: Ipv4Addr) -> StackConfig {
    let tcp = TcpConfig::builder()
        .recv_buf(64 * 1024)
        .build()
        .expect("valid tcp config");
    StackConfig::builder(ip)
        .tcp(tcp)
        .build()
        .expect("valid stack config")
}

fn fan(flows: usize, seed: u64) -> FanReport {
    let costs = CostTable::defaults();
    let shared = Dur::micros(5) + costs.copy(MSS / 8);
    let profile = TcpEndpoint::Mirage.profile(&costs);
    let tx_per_seg = shared + profile.tx_per_segment;
    let rx_per_seg = shared + profile.rx_per_segment;

    let xs = Xenstore::new();
    let mut hv = Hypervisor::with_pcpus(4);
    let dom0 =
        DriverDomain::with_profiles(xs.clone(), NetProfile::forty_gbe(), DiskProfile::pcie_ssd());
    hv.create_domain_vcpus("dom0", 512, Box::new(dom0), 2);

    // (digest, finished-at) per received flow; (digest, segs_out, bytes_out)
    // per sent flow; when the first flow was opened.
    let received = Arc::new(Mutex::new(Vec::<(u64, Time)>::new()));
    let sent = Arc::new(Mutex::new(Vec::<(u64, u64, u64)>::new()));
    let opened = Arc::new(Mutex::new(None::<Time>));

    let (front_rx, nh_rx) =
        Backend::XenRing.net(xs.clone(), "rx", Mac::local(2).0, CopyDiscipline::ZeroCopy);
    let received_rx = Arc::clone(&received);
    let mut rx_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_rx, stack_cfg(RX_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(PORT).await.expect("listen");
            let mut tasks = Vec::new();
            for _ in 0..flows {
                let mut stream = listener.accept().await.expect("accept");
                let (rt3, received) = (rt2.clone(), Arc::clone(&received_rx));
                tasks.push(rt2.spawn(async move {
                    let mut hash = DetHasher::default();
                    let mut got = 0usize;
                    let mut next_credit = CREDIT;
                    while got < BYTES_PER_FLOW {
                        let Some(chunk) = stream.read().await else {
                            break;
                        };
                        let segs = chunk.len().div_ceil(MSS) as u64;
                        rt3.charge(Dur::nanos(rx_per_seg.as_nanos() * segs));
                        hash.write(&chunk);
                        got += chunk.len();
                        while got >= next_credit {
                            stream.write(&[0]);
                            next_credit += CREDIT;
                        }
                    }
                    assert_eq!(got, BYTES_PER_FLOW, "flow ended short");
                    received
                        .lock()
                        .expect("results")
                        .push((hash.finish(), rt3.now()));
                    // Hold the stream until the sender closes: dropping it
                    // would close under the last credit.
                    while stream.read().await.is_some() {}
                }));
            }
            for t in tasks {
                t.await;
            }
            0i64
        })
    });
    rx_guest.add_device(front_rx);
    let rx_dom = hv.create_domain("fan-rx", 128, Box::new(rx_guest));

    let (front_tx, nh_tx) =
        Backend::XenRing.net(xs.clone(), "tx", Mac::local(1).0, CopyDiscipline::ZeroCopy);
    let (sent_tx, opened_tx) = (Arc::clone(&sent), Arc::clone(&opened));
    let mut tx_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_tx, stack_cfg(TX_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            // Let the receiver bind its listener first.
            rt2.sleep(Dur::millis(5)).await;
            *opened_tx.lock().expect("opened") = Some(rt2.now());
            let mut tasks = Vec::new();
            for flow in 0..flows {
                let (stack, rt3, sent) = (stack.clone(), rt2.clone(), Arc::clone(&sent_tx));
                tasks.push(rt2.spawn(async move {
                    let mut rng = Rng::for_stream(seed, &format!("fan-flow-{flow}"));
                    let mut stream = stack.tcp_connect(RX_IP, PORT).await.expect("connect");
                    let mut hash = DetHasher::default();
                    let mut buf = vec![0u8; WRITE];
                    let (mut written, mut credited) = (0usize, 0usize);
                    while written < BYTES_PER_FLOW {
                        while written - credited >= SEND_BUFFER {
                            let credits = stream.read().await.expect("receiver alive");
                            credited += credits.len() * CREDIT;
                        }
                        rng.fill_bytes(&mut buf);
                        rt3.charge(Dur::nanos(
                            tx_per_seg.as_nanos() * WRITE.div_ceil(MSS) as u64,
                        ));
                        hash.write(&buf);
                        stream.write(&buf);
                        written += WRITE;
                        // Yield so TCP can drain under flow control.
                        rt3.yield_now().await;
                    }
                    while credited < BYTES_PER_FLOW {
                        let credits = stream.read().await.expect("receiver alive");
                        credited += credits.len() * CREDIT;
                    }
                    let st = stream.stats().await.expect("stats");
                    sent.lock()
                        .expect("results")
                        .push((hash.finish(), st.segs_out, st.bytes_out));
                    stream.close();
                    stream.wait_closed().await;
                }));
            }
            for t in tasks {
                t.await;
            }
            0i64
        })
    });
    tx_guest.add_device(front_tx);
    let tx_dom = hv.create_domain("fan-tx", 128, Box::new(tx_guest));

    hv.run_until(Time::ZERO + Dur::secs(60));
    assert_eq!(hv.exit_code(tx_dom), Some(0), "sender finished");
    assert_eq!(hv.exit_code(rx_dom), Some(0), "receiver finished");

    let received = std::mem::take(&mut *received.lock().expect("results"));
    let sent = std::mem::take(&mut *sent.lock().expect("results"));
    let opened = opened.lock().expect("opened").expect("flows were opened");
    let delivered = received
        .iter()
        .map(|(_, at)| *at)
        .max()
        .expect("flows finished");
    let (segs, bytes) = sent.iter().fold((0u64, 0u64), |(s, b), (_, segs, bytes)| {
        (s + segs, b + bytes)
    });
    let mut report = FanReport {
        goodput_mbps: (flows * BYTES_PER_FLOW) as f64 * 8.0
            / delivered.saturating_since(opened).as_secs_f64()
            / 1e6,
        segs_per_mss: segs as f64 / (bytes as f64 / MSS as f64),
        sent: sent.iter().map(|(d, ..)| *d).collect(),
        received: received.iter().map(|(d, _)| *d).collect(),
    };
    report.sent.sort_unstable();
    report.received.sort_unstable();
    report
}

#[test]
fn sixteen_flows_share_one_vcpu_without_collapsing() {
    let seed = mirage_testkit::test_seed();
    let one = fan(1, seed);
    let sixteen = fan(16, seed);

    assert_eq!(sixteen.sent.len(), 16);
    assert_eq!(
        sixteen.sent, sixteen.received,
        "every stream arrived intact"
    );
    assert_eq!(one.sent, one.received);
    assert!(
        sixteen.segs_per_mss <= 1.1,
        "silly segments are back: {:.2} segments per MSS of payload",
        sixteen.segs_per_mss
    );
    assert!(
        sixteen.goodput_mbps >= 0.8 * one.goodput_mbps,
        "16 flows get {:.0} Mbit/s where one gets {:.0}",
        sixteen.goodput_mbps,
        one.goodput_mbps
    );
    assert_eq!(sixteen, fan(16, seed), "same seed, same run");
}
