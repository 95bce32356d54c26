//! iperf harness (paper Figure 8): real TCP flows between two stacks
//! through the simulated switch, with the per-endpoint cost profiles of
//! [`mirage_baseline::netperf`] charged on the data path.

use std::future::Future;

use mirage_baseline::netperf::{TcpEndpoint, MSS};
use mirage_devices::netfront::CopyDiscipline;
use mirage_devices::{Backend, DiskProfile, DriverDomain, NetProfile, Xenstore};
use mirage_hypervisor::{DomainId, Dur, Hypervisor, Time};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage_runtime::{Runtime, UnikernelGuest};

const TX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Result of one iperf run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IperfResult {
    /// Goodput in Mbit/s of virtual time.
    pub mbps: f64,
    /// Bytes delivered.
    pub bytes: u64,
}

/// Runs `flows` parallel bulk flows of `bytes_per_flow` from a `tx`-profile
/// endpoint to an `rx`-profile endpoint and reports aggregate goodput,
/// over the default Xen-ring transport.
pub fn iperf(
    tx: TcpEndpoint,
    rx: TcpEndpoint,
    flows: usize,
    bytes_per_flow: usize,
) -> IperfResult {
    iperf_on(Backend::XenRing, tx, rx, flows, bytes_per_flow)
}

/// [`iperf`], with the ring ABI an explicit axis: the same flows ride
/// Xen-style rings or split virtqueues depending on `backend`. The host is
/// the paper's Figure 8 testbed: six pCPUs, single-vCPU guests and dom0,
/// and an inter-VM path the fabric does not bottleneck (10 GbE model).
pub fn iperf_on(
    backend: Backend,
    tx: TcpEndpoint,
    rx: TcpEndpoint,
    flows: usize,
    bytes_per_flow: usize,
) -> IperfResult {
    let world = World::boot(6, NetProfile::ten_gbe(), 1, backend, 1);
    run_iperf(world, tx, rx, flows, bytes_per_flow)
}

/// Runs `flows` bulk flows between two `vcpus`-wide SMP unikernels: each
/// side runs a [`Runtime::smp`] executor, a NIC with a ring pair and an
/// event channel per vCPU that the switch feeds by RSS hash, and a
/// [`Stack::spawn_sharded`] worker per vCPU owning the flows of its queue.
/// Flow tasks are pinned round-robin across cores, so the per-segment
/// endpoint cost — the Figure 8 bottleneck — is charged on parallel vCPU
/// lanes and the gang-placed step overlaps them on distinct pCPUs.
pub fn iperf_smp(
    tx: TcpEndpoint,
    rx: TcpEndpoint,
    vcpus: usize,
    flows: usize,
    bytes_per_flow: usize,
) -> IperfResult {
    iperf_smp_on(Backend::XenRing, tx, rx, vcpus, flows, bytes_per_flow)
}

/// [`iperf_smp`], with the ring ABI an explicit axis. The NIC layout is
/// the same on both: a Xen ring pair or a virtqueue pair per vCPU, so the
/// two rows differ only by what the transport itself costs.
pub fn iperf_smp_on(
    backend: Backend,
    tx: TcpEndpoint,
    rx: TcpEndpoint,
    vcpus: usize,
    flows: usize,
    bytes_per_flow: usize,
) -> IperfResult {
    run_iperf(World::smp(backend, vcpus), tx, rx, flows, bytes_per_flow)
}

/// A booted host and the shape of the guests it carries.
struct World {
    xs: Xenstore,
    hv: Hypervisor,
    backend: Backend,
    vcpus: usize,
}

impl World {
    /// Boots `pcpus` physical CPUs and a `dom0_vcpus`-wide driver domain
    /// switching at `fabric` speed; guests will be `vcpus` wide.
    fn boot(
        pcpus: usize,
        fabric: NetProfile,
        dom0_vcpus: usize,
        backend: Backend,
        vcpus: usize,
    ) -> World {
        assert!(vcpus > 0, "need at least one vCPU");
        let xs = Xenstore::new();
        let mut hv = Hypervisor::with_pcpus(pcpus);
        let dom0 = DriverDomain::with_profiles(xs.clone(), fabric, DiskProfile::pcie_ssd());
        hv.create_domain_vcpus("dom0", 512, Box::new(dom0), dom0_vcpus);
        World {
            xs,
            hv,
            backend,
            vcpus,
        }
    }

    /// The SMP-matrix host. It measures CPU scaling, so it is sized to stay
    /// out of the way: enough pCPUs that no guest's vCPU gang ever waits, a
    /// 40 GbE fabric and a switch lane per port.
    fn smp(backend: Backend, vcpus: usize) -> World {
        World::boot(2 + 2 * vcpus, NetProfile::forty_gbe(), 2, backend, vcpus)
    }

    /// Adds a unikernel: a NIC called `name` with one RX queue per vCPU,
    /// one stack worker per queue, and `main` as its main thread.
    fn guest<F, Fut>(
        &mut self,
        name: &str,
        mac: u32,
        mem_mib: u64,
        cfg: StackConfig,
        main: F,
    ) -> DomainId
    where
        F: FnOnce(Stack, Runtime) -> Fut + Send + 'static,
        Fut: Future<Output = i64> + Send + 'static,
    {
        let vcpus = self.vcpus;
        let (front, handles) = self.backend.net_multiqueue(
            self.xs.clone(),
            name,
            Mac::local(mac).0,
            CopyDiscipline::ZeroCopy,
            vcpus,
        );
        let mut guest = UnikernelGuest::with_runtime(Runtime::smp(vcpus), move |_env, rt| {
            let stack = Stack::spawn_sharded(rt, handles, cfg);
            rt.spawn(main(stack, rt.clone()))
        });
        guest.add_device(front);
        let guest = Box::new(guest);
        self.hv.create_domain_vcpus(name, mem_mib, guest, vcpus)
    }
}

/// One iperf run between a sender and a receiver on `world`, flow tasks
/// pinned round-robin across each guest's cores.
fn run_iperf(
    mut world: World,
    tx: TcpEndpoint,
    rx: TcpEndpoint,
    flows: usize,
    bytes_per_flow: usize,
) -> IperfResult {
    let vcpus = world.vcpus;
    let costs = mirage_hypervisor::CostTable::defaults();
    // Charge the shared state-machine work plus the endpoint profile per
    // segment; the segments themselves flow through the live stack.
    let shared = Dur::micros(5) + costs.copy(MSS / 8);
    let tx_per_seg = shared + tx.profile(&costs).tx_per_segment;
    let rx_per_seg = shared + rx.profile(&costs).rx_per_segment;

    // Bound each flow's advertised window so aggregate in-flight data
    // stays within the switch queueing budget (the paper's 64-slot rings
    // impose the same back-pressure).
    let tcp_cfg = mirage_net::tcp::TcpConfig::builder()
        .recv_buf(64 * 1024)
        .build()
        .expect("valid tcp config");
    let stack_cfg = |ip| {
        StackConfig::builder(ip)
            .tcp(tcp_cfg.clone())
            .build()
            .expect("valid stack config")
    };

    let total_expected = (flows * bytes_per_flow) as u64;
    let receiver = move |stack: Stack, rt: Runtime| async move {
        let mut listener = stack.tcp_listen(5001).await.unwrap();
        let mut handles = Vec::new();
        for f in 0..flows {
            let mut stream = listener.accept().await.unwrap();
            let rt2 = rt.clone();
            handles.push(rt.spawn_on(f % vcpus, async move {
                let mut got = 0u64;
                while let Some(chunk) = stream.read().await {
                    let segs = chunk.len().div_ceil(MSS) as u64;
                    rt2.charge(Dur::nanos(rx_per_seg.as_nanos() * segs));
                    got += chunk.len() as u64;
                }
                got
            }));
        }
        let mut total = 0u64;
        for h in handles {
            total += h.await;
        }
        assert_eq!(total, total_expected, "all flow bytes delivered");
        // Report the virtual completion instant (ns); the harness
        // excludes connection teardown (TIME-WAIT) from goodput, as
        // iperf does.
        rt.now().as_nanos() as i64
    };
    let rx_dom = world.guest("rx", 2, 128, stack_cfg(RX_IP), receiver);
    let sender = move |stack: Stack, rt: Runtime| async move {
        rt.sleep(Dur::millis(5)).await;
        let mut handles = Vec::new();
        for f in 0..flows {
            let stack = stack.clone();
            let rt2 = rt.clone();
            handles.push(rt.spawn_on(f % vcpus, async move {
                let mut stream = stack.tcp_connect(RX_IP, 5001).await.expect("connect");
                let chunk = vec![(f % 251) as u8; 16 * 1024];
                let mut sent = 0usize;
                while sent < bytes_per_flow {
                    let n = chunk.len().min(bytes_per_flow - sent);
                    let segs = n.div_ceil(MSS) as u64;
                    rt2.charge(Dur::nanos(tx_per_seg.as_nanos() * segs));
                    stream.write(&chunk[..n]);
                    sent += n;
                    // Yield so TCP can drain under flow control.
                    rt2.yield_now().await;
                }
                stream.close();
                stream.wait_closed().await;
            }));
        }
        for h in handles {
            h.await;
        }
        0
    };
    world.guest("tx", 1, 128, stack_cfg(TX_IP), sender);

    world.hv.set_step_budget(400_000_000);
    world.hv.run_until(Time::ZERO + Dur::secs(600));
    let finished_ns = world.hv.exit_code(rx_dom).expect("receiver finished") as u64;
    // Senders start after a 5 ms settle; goodput excludes that lead-in.
    let start = Time::ZERO + Dur::millis(5);
    let elapsed = Time::from_nanos(finished_ns).saturating_since(start);
    IperfResult {
        mbps: total_expected as f64 * 8.0 / elapsed.as_secs_f64() / 1e6,
        bytes: total_expected,
    }
}

/// Per-core snapshot of an SMP server holding idle connections through a
/// quiet window: how the connections spread over the stack workers, and
/// how many wheel-driven `Connection::poll`s each core did while nothing
/// was due (the C1M claim, split per core: an idle connection costs no
/// core anything).
#[derive(Debug, Clone)]
pub struct IdleSmpReport {
    /// Connection-table entries per stack worker at the end of the window.
    pub conns_per_core: Vec<u64>,
    /// Timer polls per stack worker during the quiet window.
    pub quiet_polls_per_core: Vec<u64>,
    /// Connections actually established.
    pub established: u64,
}

/// Holds `conns` idle keep-alive connections against a `vcpus`-wide
/// multi-queue server, then measures a `quiet` window in which no
/// connection has any due work. Returns the per-core split.
pub fn idle_smp(vcpus: usize, conns: usize, quiet: Dur) -> IdleSmpReport {
    use std::sync::{Arc, Mutex};

    let mut world = World::smp(Backend::XenRing, vcpus);
    let report: Arc<Mutex<Option<IdleSmpReport>>> = Arc::new(Mutex::new(None));

    // Server: parks every accepted stream for the duration.
    let srv_cfg = StackConfig::builder(RX_IP).build().expect("valid config");
    let report_w = Arc::clone(&report);
    let server = move |stack: Stack, rt: Runtime| async move {
        let mut listener = stack.tcp_listen(80).await.unwrap();
        let mut parked = Vec::with_capacity(conns);
        for _ in 0..conns {
            parked.push(listener.accept().await.unwrap());
        }
        // Everything established and idle: measure the quiet window.
        let before = stack.stack_stats_per_core().await.unwrap();
        rt.sleep(quiet).await;
        let after = stack.stack_stats_per_core().await.unwrap();
        *report_w.lock().unwrap() = Some(IdleSmpReport {
            conns_per_core: after.iter().map(|s| s.conns).collect(),
            quiet_polls_per_core: after
                .iter()
                .zip(&before)
                .map(|(a, b)| a.timer_polls - b.timer_polls)
                .collect(),
            established: parked.len() as u64,
        });
        0
    };
    let srv_dom = world.guest("idle-srv", 2, 256, srv_cfg, server);

    // Client: same width, each core ramps its share of the connections
    // sequentially and parks them (keep-alive, no requests).
    let cli_cfg = StackConfig::builder(TX_IP).build().expect("valid config");
    let client = move |stack: Stack, rt: Runtime| async move {
        rt.sleep(Dur::millis(5)).await;
        let mut handles = Vec::new();
        for core in 0..vcpus {
            let share = conns / vcpus + usize::from(core < conns % vcpus);
            let stack = stack.clone();
            let rt2 = rt.clone();
            handles.push(rt.spawn_on(core, async move {
                let mut parked = Vec::with_capacity(share);
                for _ in 0..share {
                    parked.push(stack.tcp_connect(RX_IP, 80).await.expect("connect"));
                }
                // Hold the connections open past the server's quiet
                // window; dropping them would tear the table down.
                rt2.sleep(Dur::secs(3600)).await;
                parked.len()
            }));
        }
        for h in handles {
            h.await;
        }
        0
    };
    world.guest("idle-cli", 1, 256, cli_cfg, client);

    world.hv.set_step_budget(400_000_000);
    world.hv.run_until(Time::ZERO + Dur::secs(3000));
    assert_eq!(world.hv.exit_code(srv_dom), Some(0), "server finished its window");
    let out = report.lock().unwrap().take().expect("server wrote report");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_delivers_and_reports_throughput() {
        let r = iperf(TcpEndpoint::Linux, TcpEndpoint::Mirage, 1, 300_000);
        assert_eq!(r.bytes, 300_000);
        assert!(r.mbps > 50.0, "non-trivial goodput: {:.0} Mb/s", r.mbps);
    }

    /// The parity gate: both transports price the identical data path, so
    /// a virtio cell moves the same bytes as its Xen twin at a goodput
    /// within 2x of it, either way.
    fn parity_gate(xen: IperfResult, virtio: IperfResult) -> Result<(), String> {
        if xen.bytes != virtio.bytes {
            return Err(format!(
                "byte counts differ: xen {} vs virtio {}",
                xen.bytes, virtio.bytes
            ));
        }
        let ratio = virtio.mbps / xen.mbps;
        if !(0.5..=2.0).contains(&ratio) {
            return Err(format!(
                "virtio {:.1} vs xen {:.1} Mb/s (x{ratio:.2} outside [0.5, 2.0])",
                virtio.mbps, xen.mbps
            ));
        }
        Ok(())
    }

    #[test]
    fn every_fig08_cell_is_within_2x_across_backends() {
        use TcpEndpoint::{Linux, Mirage};
        for (tx, rx) in [(Linux, Linux), (Linux, Mirage), (Mirage, Linux)] {
            for (flows, bytes) in [(1, 1_000_000), (4, 250_000)] {
                let xen = iperf_on(Backend::XenRing, tx, rx, flows, bytes);
                let virtio = iperf_on(Backend::Virtio, tx, rx, flows, bytes);
                if let Err(why) = parity_gate(xen, virtio) {
                    panic!("{tx:?} to {rx:?}, {flows} x {bytes} B: {why}");
                }
            }
        }
    }

    #[test]
    fn the_parity_gate_can_fail() {
        let cell = |mbps| IperfResult {
            mbps,
            bytes: 1_000_000,
        };
        assert!(
            parity_gate(cell(700.0), cell(700.0 * 2.1)).is_err(),
            "a 2.1x cell"
        );
        assert!(
            parity_gate(cell(700.0), cell(700.0 / 2.1)).is_err(),
            "either way"
        );
        let short = IperfResult {
            bytes: 999_999,
            ..cell(700.0)
        };
        assert!(parity_gate(cell(700.0), short).is_err(), "a lost byte");
        assert!(parity_gate(cell(995.0), cell(643.0)).is_ok());
    }

    /// The SMP gate, over the one-flow one-vCPU cell and the 16-flow row
    /// at {1, 2, 4, 8} vCPUs (Mbit/s): sixteen flows on one vCPU get what
    /// one flow gets (the core is the bottleneck either way; fan-in must
    /// not collapse it), no added vCPU costs throughput, and four cores at
    /// least double one.
    fn smp_gate(one_flow: f64, row16: [f64; 4]) -> Result<(), String> {
        if row16[0] < 0.9 * one_flow {
            return Err(format!(
                "16 flows on 1 vCPU get {:.1} Mb/s, below 0.9x the {one_flow:.1} one flow gets",
                row16[0]
            ));
        }
        if row16.windows(2).any(|w| w[1] < w[0]) {
            return Err(format!(
                "the 16-flow row falls as vCPUs are added: {row16:?}"
            ));
        }
        if row16[2] < 2.0 * row16[0] {
            return Err(format!(
                "4 vCPUs get {:.1} Mb/s, below 2x the {:.1} of 1 vCPU on the 16-flow row",
                row16[2], row16[0]
            ));
        }
        Ok(())
    }

    #[test]
    fn sixteen_flows_scale_with_vcpus() {
        // The matrix of examples/smp, at its 1 MB per flow: at 200 kB a
        // 16-flow cell lasts a tenth of the minimum RTO and measures slow
        // start, not the steady state the gate is about.
        let cell = |vcpus, flows| {
            let r = iperf_smp(
                TcpEndpoint::Mirage,
                TcpEndpoint::Mirage,
                vcpus,
                flows,
                1_000_000,
            );
            assert_eq!(r.bytes, flows as u64 * 1_000_000);
            r.mbps
        };
        let one_flow = cell(1, 1);
        let row16 = [1, 2, 4, 8].map(|vcpus| cell(vcpus, 16));
        if let Err(why) = smp_gate(one_flow, row16) {
            panic!("{why} (1 flow {one_flow:.1}, 16 flows {row16:.1?})");
        }
    }

    #[test]
    fn the_smp_gate_can_fail() {
        // Each failing row is on the books: the 1-vCPU collapse PR 14
        // found, the credit-blocking sender's row (EXPERIMENTS.md), and a
        // row that falls from 2 to 4 vCPUs.
        let collapsed = smp_gate(669.1, [112.5, 1155.4, 1723.9, 2337.5]);
        assert!(collapsed.unwrap_err().contains("below 0.9x"));
        let flat = smp_gate(920.1, [948.5, 1153.6, 1283.6, 1420.9]);
        assert!(flat.unwrap_err().contains("below 2x"));
        let falling = smp_gate(704.5, [703.6, 1671.6, 1186.4, 2341.9]);
        assert!(falling.unwrap_err().contains("falls"));
        assert!(smp_gate(704.5, [703.6, 1186.4, 1671.6, 2341.9]).is_ok());
    }

    #[test]
    fn idle_smp_quiet_tick_polls_nothing_on_any_core() {
        let r = idle_smp(4, 256, Dur::millis(64));
        assert_eq!(r.established, 256);
        assert_eq!(r.conns_per_core.len(), 4);
        assert_eq!(r.conns_per_core.iter().sum::<u64>(), 256);
        // Idle connections arm no deadline: a quiet window drives zero
        // wheel polls on every core, not just in aggregate.
        for (core, polls) in r.quiet_polls_per_core.iter().enumerate() {
            assert_eq!(*polls, 0, "core {core} polled {polls} idle conns");
        }
        // RSS spreads the flows: no core holds everything.
        let max = r.conns_per_core.iter().max().unwrap();
        assert!(*max < 256, "connections spread over cores: {:?}", r.conns_per_core);
    }

    #[test]
    fn mirage_tx_is_slower_than_linux_tx_through_the_real_stack() {
        let m2l = iperf(TcpEndpoint::Mirage, TcpEndpoint::Linux, 1, 300_000);
        let l2l = iperf(TcpEndpoint::Linux, TcpEndpoint::Linux, 1, 300_000);
        let l2m = iperf(TcpEndpoint::Linux, TcpEndpoint::Mirage, 1, 300_000);
        // Paper: Linux→Mirage 1742 > Linux→Linux 1590 > Mirage→Linux 975.
        assert!(
            l2m.mbps > l2l.mbps && l2l.mbps > m2l.mbps,
            "figure 8 ordering through the live stack: L->M {:.0}, L->L {:.0}, M->L {:.0}",
            l2m.mbps,
            l2l.mbps,
            m2l.mbps
        );
    }
}
