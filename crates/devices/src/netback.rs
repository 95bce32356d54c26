//! The driver domain: netback, blkback and the virtual switch.
//!
//! In the paper's deployments dom0 hosts the backend halves of every
//! device: netback multiplexes guest NICs onto the physical network and
//! blkback services block rings from physical storage (§3.4). The
//! [`DriverDomain`] guest reproduces that role over the simulated
//! substrate: it discovers frontends through xenstore, maps their granted
//! rings, and hands each to the one piece of code that serves its kind —
//! NICs to the learning switch ([`crate::switch`]), disks to a block backend
//! (`blkback`) with the device's timing profile.
//!
//! Both ring ABIs are served: a frontend advertises under `device/net`,
//! `device/blk` (Xen rings) or `device/vnet`, `device/vblk` (virtio), the
//! matching transport attaches it, and from there on frames and requests
//! flow through the same forwarding, link conditioning, fault injection
//! and timing paths, so a differential run only varies the transport.

use std::collections::HashMap;
use std::sync::Arc;

use mirage_testkit::rng::Rng;
use mirage_testkit::sync::Mutex;

use mirage_hypervisor::{DomainEnv, Guest, Step, Wake};

use crate::blk::DiskProfile;
use crate::blkback::BlkBackend;
use crate::netem::Netem;
use crate::switch::{NetProfile, Switch, Tap};
use crate::transport::{Dir, Probe, PROBES};
use crate::xenstore::Xenstore;

/// Counters for the whole driver domain.
///
/// Drops are split by reason so chaos tests can distinguish *injected*
/// loss (netem) from *organic* loss (a congested or dead guest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriverStats {
    /// Frames switched.
    pub frames_switched: u64,
    /// Frames tail-dropped at a live guest's full output queue.
    pub frames_dropped_congestion: u64,
    /// Frames the [`Netem`] link conditioner refused to deliver.
    pub frames_dropped_netem: u64,
    /// Frames tail-dropped while the guest had stopped posting rx buffers
    /// (typically: the domain was killed mid-connection).
    pub frames_dropped_no_rx_buffer: u64,
    /// Block requests completed.
    pub blk_completed: u64,
    /// Injected transient read failures.
    pub blk_read_errors: u64,
    /// Injected transient write failures (nothing persisted).
    pub blk_write_errors: u64,
    /// Injected torn writes (a prefix persisted, completion failed).
    pub blk_torn_writes: u64,
    /// Frames over `MAX_FRAME` (only a tap can source one), dropped
    /// before switching.
    pub frames_dropped_oversize: u64,
    /// Guest requests — net or block, either ABI — that failed validation
    /// and were completed with an error instead of executed.
    pub requests_rejected: u64,
}

/// The dom0 guest: hosts every backend plus the virtual switch.
pub struct DriverDomain {
    xs: Xenstore,
    registered: bool,
    disk_profile: DiskProfile,
    switch: Switch,
    blks: Vec<BlkBackend>,
    /// Every frontend attached, by xenstore base: the store version of
    /// the scan that attached it and its switch port or block backend.
    seen: HashMap<String, (u64, usize)>,
    /// The store version as of a scan that met no frontend still to
    /// attach: until a write moves it, a rescan would find — and charge —
    /// nothing, so it is skipped.
    settled_at: Option<u64>,
    /// The counters the switch and the block backends count into, copied
    /// out to `stats` once per step that moved them.
    counts: DriverStats,
    stats: Arc<Mutex<DriverStats>>,
    disk_rng: Rng,
}

impl DriverDomain {
    /// A driver domain over `xs`, with default gigabit network and PCIe-SSD
    /// disk profiles.
    pub fn new(xs: Xenstore) -> DriverDomain {
        DriverDomain::with_profiles(xs, NetProfile::default(), DiskProfile::pcie_ssd())
    }

    /// Full-control constructor.
    pub fn with_profiles(
        xs: Xenstore,
        net_profile: NetProfile,
        disk_profile: DiskProfile,
    ) -> DriverDomain {
        DriverDomain {
            xs,
            registered: false,
            disk_profile,
            switch: Switch::new(net_profile),
            blks: Vec::new(),
            seen: HashMap::new(),
            settled_at: None,
            counts: DriverStats::default(),
            stats: Arc::default(),
            disk_rng: Rng::for_stream(mirage_testkit::DEFAULT_SEED, "netback-disk-faults"),
        }
    }

    /// Attaches a host-side tap endpoint to the switch.
    pub fn add_tap(&mut self, tap: Tap) {
        self.switch.taps.push(tap);
    }

    /// Installs a [`Netem`] link conditioner on the switch's forwarding
    /// path. Without one (the default) the link is a perfect wire and the
    /// forwarding path is unchanged.
    pub fn set_netem(&mut self, netem: Netem) {
        self.switch.netem = Some(netem);
    }

    /// Replaces the PRNG that drives [`DiskFaultPlan`](crate::netem::DiskFaultPlan)
    /// draws, so storage faults follow the caller's `MIRAGE_TEST_SEED`
    /// stream discipline.
    pub fn set_disk_fault_rng(&mut self, rng: Rng) {
        self.disk_rng = rng;
    }

    /// Shared counters handle (readable while the domain runs).
    pub fn stats_handle(&self) -> Arc<Mutex<DriverStats>> {
        Arc::clone(&self.stats)
    }

    /// Attaches every frontend that has advertised itself since the last
    /// pass: NICs become switch ports, disks get a block backend; one that
    /// advertises anew (its domain restarted) takes its old port or backend.
    fn discover(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let version = self.xs.version();
        if self.settled_at == Some(version) {
            return false;
        }
        let mut progressed = false;
        let mut settled = true;
        for (dir, probe) in &PROBES {
            for key in self.xs.keys_with_prefix(dir) {
                let Some(base) = key.strip_suffix("/state") else {
                    continue;
                };
                // An attached frontend rewrites its domain id only when it
                // advertises anew, and the watch names the key: no read.
                let anew = |at| self.xs.written_at(&format!("{base}/frontend-domid")) > Some(at);
                let replacing = match self.seen.get(base) {
                    Some(&(at, _)) if !anew(at) => continue,
                    seen => seen.map(|&(_, idx)| idx),
                };
                // An unattached frontend is polled (and its read charged)
                // on every pass until it attaches.
                settled = false;
                if self.xs.read(env, &key).as_deref() != Some("initialising") {
                    continue;
                }
                let xs = self.xs.clone();
                let dir = Dir {
                    xs,
                    base: base.to_owned(),
                };
                let idx = match probe {
                    Probe::Nic(attach) => {
                        let Some(pairs) = attach(env, &dir) else {
                            continue;
                        };
                        self.switch.add_port(pairs, replacing)
                    }
                    Probe::Disk(attach) => {
                        let Some(sectors) = dir.read(env, "sectors") else {
                            continue;
                        };
                        let Some((port, queue)) = attach(env, &dir) else {
                            continue;
                        };
                        let blk = BlkBackend::new(port, queue, self.disk_profile, sectors);
                        match replacing.and_then(|idx| self.blks.get_mut(idx)) {
                            Some(dead) => *dead = blk,
                            None => self.blks.push(blk),
                        }
                        replacing.unwrap_or(self.blks.len() - 1)
                    }
                };
                self.seen.insert(dir.base, (version, idx));
                progressed = true;
            }
        }
        self.settled_at = settled.then_some(version);
        progressed
    }
}

impl Guest for DriverDomain {
    fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
        if !self.registered {
            self.xs.register_watcher(env.domid());
            self.xs
                .write(env, "backend-domid", &env.domid().0.to_string());
            self.registered = true;
        }
        let counted = self.counts;
        loop {
            let mut progressed = self.discover(env);
            progressed |= self.switch.service(env, &mut self.counts);
            for blk in &mut self.blks {
                progressed |= blk.service(env, &mut self.disk_rng, &mut self.counts);
            }
            // Arm request notifications before blocking; any race means
            // another pass instead of a sleep.
            progressed |= self.switch.arm();
            for blk in &mut self.blks {
                progressed |= blk.arm();
            }
            if !progressed {
                break;
            }
        }
        if self.counts != counted {
            *self.stats.lock() = self.counts;
        }
        let deadline = self
            .blks
            .iter()
            .filter_map(|b| b.next_deadline())
            .chain(self.switch.next_deadline())
            .min();
        Step::Yield(Wake { deadline })
    }
}

impl std::fmt::Debug for DriverDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverDomain")
            .field("blks", &self.blks.len())
            .field("taps", &self.switch.taps.len())
            .finish()
    }
}

/// A frontend with no scruples, for the hostile-guest tests: it completes
/// the xenstore handshake like the real ones, then posts exactly the
/// requests it is told to — however malformed — and records what comes
/// back. Made per ABI by `Backend::raw`.
#[cfg(test)]
pub(crate) mod raw {
    use std::sync::Arc;

    use mirage_hypervisor::event::Port;
    use mirage_hypervisor::grant::SharedPage;
    use mirage_hypervisor::DomainEnv;
    use mirage_runtime::{DeviceService, Runtime};
    use mirage_testkit::sync::Mutex;

    use crate::netfront::MAX_FRAME;
    use crate::transport::{
        advertise_disk, advertise_nic, connect_disk, connect_nic, find_backend, Completion,
        DataBuf, Dir, FrontTransport, Link,
    };
    use crate::xenstore::Xenstore;

    /// One request to post: its header, the length and direction its
    /// buffer claims, and what the buffer's page holds.
    pub(crate) struct Post {
        pub header: Vec<u8>,
        pub len: u32,
        pub device_writes: bool,
        pub payload: Vec<u8>,
    }

    pub(crate) enum Kind {
        /// A NIC; the script goes out on its TX queue.
        Nic,
        /// A disk of this many sectors.
        Disk(u64),
    }

    pub(crate) struct Raw<T> {
        dir: Dir,
        kind: Kind,
        script: Vec<Post>,
        /// Completions of the scripted requests, in arrival order.
        done: Arc<Mutex<Vec<Completion>>>,
        link: Link,
        /// `[tx, rx]` for a NIC, `[queue]` for a disk.
        queues: Vec<T>,
        port: Option<Port>,
        /// What it does to its first queue's shared memory once the script
        /// is published.
        tamper: Option<fn(&T)>,
    }

    impl<T: FrontTransport> Raw<T> {
        pub(crate) fn new(
            xs: Xenstore,
            kind: Kind,
            script: Vec<Post>,
            done: Arc<Mutex<Vec<Completion>>>,
        ) -> Raw<T> {
            let kind_dir = match kind {
                Kind::Nic => T::NET_DIR,
                Kind::Disk(_) => T::BLK_DIR,
            };
            let base = format!("device/{kind_dir}/raw");
            let (link, queues, port) = (Link::Init, Vec::new(), None);
            Raw {
                dir: Dir { xs, base },
                kind,
                script,
                done,
                link,
                queues,
                port,
                tamper: None,
            }
        }

        /// The same frontend, which then does `tamper` to its queue.
        pub(crate) fn tampering(self, tamper: fn(&T)) -> Raw<T> {
            let tamper = Some(tamper);
            Raw { tamper, ..self }
        }
    }

    impl<T: FrontTransport> DeviceService for Raw<T> {
        fn service(&mut self, env: &mut DomainEnv<'_>, _rt: &Runtime) -> bool {
            let dir = &self.dir;
            match self.link {
                Link::Init => {
                    let Some(backend) = find_backend(env, &dir.xs) else {
                        return false;
                    };
                    match self.kind {
                        Kind::Nic => {
                            let (tx, rx) = advertise_nic(env, dir, backend, 1).remove(0);
                            self.queues = vec![tx, rx];
                        }
                        Kind::Disk(sectors) => {
                            self.queues = vec![advertise_disk(env, dir, backend)];
                            dir.write(env, "sectors", sectors);
                        }
                    }
                    dir.write(env, "state", "initialising");
                    self.link = Link::Advertised(backend);
                    true
                }
                Link::Advertised(backend) => {
                    let port = match self.kind {
                        Kind::Nic => {
                            let rx = &mut self.queues[1];
                            let fill = |env: &mut DomainEnv<'_>, _queue: usize| {
                                let gref = env.grant(backend, SharedPage::new(), true);
                                rx.post(&[], DataBuf::page(gref, MAX_FRAME, true));
                                rx.publish();
                            };
                            connect_nic(env, dir, backend, 1, fill).map(|ports| ports[0])
                        }
                        Kind::Disk(_) => {
                            let depth = self.script.len();
                            connect_disk(env, dir, backend, &mut self.queues[0], depth)
                        }
                    };
                    let Some(port) = port else {
                        return false;
                    };
                    self.port = Some(port);
                    // The whole script at once, ill-formed entries and all.
                    for post in self.script.drain(..) {
                        let page = SharedPage::new();
                        page.write(|b| b[..post.payload.len()].copy_from_slice(&post.payload));
                        let gref = env.grant(backend, page, true);
                        let data = DataBuf {
                            gref: gref.0,
                            off: 0,
                            len: post.len,
                            device_writes: post.device_writes,
                        };
                        self.queues[0].post(&post.header, data);
                    }
                    self.queues[0].publish();
                    if let Some(tamper) = self.tamper {
                        tamper(&self.queues[0]);
                    }
                    env.evtchn_notify(port).expect("bound");
                    self.link = Link::Connected;
                    true
                }
                Link::Connected => {
                    let _ = env.evtchn_consume(self.port.expect("connected"));
                    let mut progressed = false;
                    while let Some(done) = self.queues[0].reap() {
                        self.done.lock().push(done);
                        progressed = true;
                    }
                    progressed | self.queues[0].arm()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::raw::{Kind, Post};
    use super::*;
    use crate::blk::wire;
    use crate::driver::Backend;
    use crate::netem::DiskFaultPlan;
    use crate::netfront::CopyDiscipline;
    use crate::transport::Completion;
    use mirage_hypervisor::{Dur, Hypervisor, Time};
    use mirage_runtime::{DeviceService, UnikernelGuest};

    const TAP_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x01];
    const GUEST_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0xAA];

    fn eth_frame(dst: [u8; 6], src: [u8; 6], len: usize) -> Vec<u8> {
        let mut f = vec![0x5A; len];
        f[0..6].copy_from_slice(&dst);
        f[6..12].copy_from_slice(&src);
        f[12..14].copy_from_slice(&[0x08, 0x00]);
        f
    }

    /// Boots `dom0` beside a guest whose only device is a raw frontend
    /// posting `script`, runs to quiescence — the driver domain must
    /// survive whatever arrives — and returns the completions and the
    /// driver's counters.
    fn run_raw(
        backend: Backend,
        dom0: DriverDomain,
        kind: Kind,
        script: Vec<Post>,
    ) -> (Vec<Completion>, DriverStats) {
        let raw = |xs, done| backend.raw(xs, kind, script, done);
        run_beside(backend, dom0, raw)
    }

    /// [`run_raw`] for a frontend made by `raw(xenstore, completions)`.
    fn run_beside(
        backend: Backend,
        dom0: DriverDomain,
        raw: impl FnOnce(Xenstore, Arc<Mutex<Vec<Completion>>>) -> Box<dyn DeviceService>,
    ) -> (Vec<Completion>, DriverStats) {
        let xs = dom0.xs.clone();
        let stats = dom0.stats_handle();
        let mut hv = Hypervisor::new();
        hv.create_domain("dom0", 512, Box::new(dom0));
        let done = Arc::new(Mutex::new(Vec::new()));
        let mut guest = UnikernelGuest::new(|_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                rt2.sleep(Dur::millis(50)).await;
                0
            })
        });
        guest.add_device(raw(xs, Arc::clone(&done)));
        let gdom = hv.create_domain("hostile", 64, Box::new(guest));
        hv.run_until(Time::ZERO + Dur::secs(1));
        assert_eq!(hv.exit_code(gdom), Some(0), "[{backend}] ran to completion");
        let done = done.lock().clone();
        let stats = *stats.lock();
        (done, stats)
    }

    fn blk_post(op: u8, sector: u64, count: u16, len: u32) -> Post {
        let header = wire::req(op, sector, count).to_vec();
        Post {
            header,
            len,
            device_writes: op == wire::OP_READ,
            payload: vec![0xC3; 4096],
        }
    }

    /// One hostile block request, then a well-formed one: the first must
    /// complete failed and be counted, the second must still succeed.
    fn hostile_blk(dom0: impl Fn(Xenstore) -> DriverDomain, hostile: fn() -> Post) {
        for backend in Backend::ALL {
            let script = vec![hostile(), blk_post(wire::OP_READ, 8, 1, 512)];
            let (done, stats) = run_raw(backend, dom0(Xenstore::new()), Kind::Disk(64), script);
            let ok: Vec<bool> = done.iter().map(|c| c.ok).collect();
            assert_eq!(
                ok,
                [false, true],
                "[{backend}] hostile fails, well-formed succeeds"
            );
            assert_eq!(stats.requests_rejected, 1, "[{backend}]");
            assert_eq!(
                stats.blk_completed, 1,
                "[{backend}] only the well-formed one ran"
            );
        }
    }

    #[test]
    fn blk_count_over_a_page_is_rejected() {
        // Nine sectors are in range on a 64-sector disk but overrun the
        // one-page buffer.
        hostile_blk(DriverDomain::new, || blk_post(wire::OP_WRITE, 0, 9, 4096));
    }

    #[test]
    fn blk_count_zero_is_rejected_before_the_fault_plan_draws() {
        // Every write torn: a zero count would reach `gen_range(0..0)`.
        let torn = |xs| {
            let faults = DiskFaultPlan {
                torn_write_ppm: 1_000_000,
                ..DiskFaultPlan::default()
            };
            let disk = DiskProfile::pcie_ssd().with_faults(faults);
            DriverDomain::with_profiles(xs, NetProfile::default(), disk)
        };
        hostile_blk(torn, || blk_post(wire::OP_WRITE, 0, 0, 0));
    }

    #[test]
    fn blk_sector_overflow_is_rejected() {
        hostile_blk(DriverDomain::new, || {
            blk_post(wire::OP_READ, u64::MAX, 1, 512)
        });
    }

    #[test]
    fn blk_header_of_another_length_is_rejected() {
        // One byte over the 11-byte header, as a longer layout would be.
        hostile_blk(DriverDomain::new, || {
            let mut post = blk_post(wire::OP_READ, 8, 1, 512);
            post.header.push(0);
            post
        });
    }

    /// Completion order is acceptance order — the device finishes what it
    /// took first — whatever order the sizes come in: here they descend.
    #[test]
    fn blk_completions_arrive_in_acceptance_order() {
        for backend in Backend::ALL {
            let counts = [6u16, 5, 4, 3, 2, 1];
            let script = counts
                .iter()
                .map(|&n| blk_post(wire::OP_READ, 0, n, u32::from(n) * 512))
                .collect();
            let dom0 = DriverDomain::new(Xenstore::new());
            let (done, stats) = run_raw(backend, dom0, Kind::Disk(64), script);
            assert_eq!(stats.blk_completed, 6, "[{backend}]");
            let sectors_read: Vec<u32> = done.iter().map(|c| c.len / 512).collect();
            assert_eq!(sectors_read, [6, 5, 4, 3, 2, 1], "[{backend}]");
        }
    }

    #[test]
    fn net_tx_length_past_the_page_is_rejected() {
        for backend in Backend::ALL {
            let tap = Tap::new(TAP_MAC);
            let mut dom0 = DriverDomain::new(Xenstore::new());
            dom0.add_tap(tap.clone());
            let frame = eth_frame(TAP_MAC, GUEST_MAC, 64);
            let post = |len| Post {
                header: vec![],
                len,
                device_writes: false,
                payload: frame.clone(),
            };
            // Past the page, a runt shorter than an Ethernet header, a frame.
            let script = vec![post(5000), post(10), post(64)];
            let (done, stats) = run_raw(backend, dom0, Kind::Nic, script);
            assert_eq!(done.len(), 3, "[{backend}] every request came back");
            assert_eq!(stats.requests_rejected, 2, "[{backend}]");
            let frames = tap.harvest();
            assert_eq!(
                frames.len(),
                1,
                "[{backend}] the well-formed frame was switched"
            );
            assert_eq!(&frames[0][..], &frame[..]);
        }
    }

    /// A guest that leaps its TX ring's producer index four billion slots
    /// ahead costs the switch one counted jump: the pass ends, with at
    /// most a ring's worth of takes, instead of walking the leap.
    #[test]
    fn a_leapt_request_index_ends_the_switch_pass() {
        use crate::transport::RingFront;
        use mirage_ring::desc::{ring_hdr, RING_SIZE};

        let tap = Tap::new(TAP_MAC);
        let mut dom0 = DriverDomain::new(Xenstore::new());
        dom0.add_tap(tap.clone());
        let frame = eth_frame(TAP_MAC, GUEST_MAC, 64);
        let post = Post {
            header: vec![],
            len: 64,
            device_writes: false,
            payload: frame,
        };
        let leap = |tx: &RingFront| tx.page().write(|b| ring_hdr::set_req_prod(b, u32::MAX));
        let raw = |xs, done| -> Box<dyn DeviceService> {
            let raw = raw::Raw::<RingFront>::new(xs, Kind::Nic, vec![post], done);
            Box::new(raw.tampering(leap))
        };
        let (done, stats) = run_beside(Backend::XenRing, dom0, raw);
        let takes = stats.requests_rejected + stats.frames_switched;
        assert!(takes <= u64::from(RING_SIZE), "{takes} takes in one pass");
        assert!(done.is_empty(), "nothing past the leap was served");
        assert!(tap.harvest().is_empty());
    }

    /// A guest restarted under its NIC's old name is attached again, in
    /// its dead incarnation's port: a frame for its MAC, learned before
    /// the kill, reaches the new incarnation, which has sent nothing.
    #[test]
    fn a_restarted_nic_takes_over_its_dead_port() {
        for backend in Backend::ALL {
            let xs = Xenstore::new();
            let tap = Tap::new(TAP_MAC);
            let mut dom0 = DriverDomain::new(xs.clone());
            dom0.add_tap(tap.clone());
            let mut hv = Hypervisor::new();
            let d0 = hv.create_domain("dom0", 512, Box::new(dom0));
            let incarnation = |speaks: bool| {
                let (front, mut nh) =
                    backend.net(xs.clone(), "g", GUEST_MAC, CopyDiscipline::ZeroCopy);
                let mut guest = UnikernelGuest::new(move |_env, rt| {
                    rt.clone().spawn(async move {
                        if speaks {
                            let frame = eth_frame(TAP_MAC, GUEST_MAC, 64);
                            nh.tx.send(mirage_cstruct::PktBuf::from_vec(frame)).unwrap();
                        }
                        nh.rx.recv().await.map_or(0, |f| f.len() as i64)
                    })
                });
                guest.add_device(front);
                Box::new(guest)
            };
            let gdom = hv.create_domain("guest", 64, incarnation(true));
            hv.run_until(Time::ZERO + Dur::millis(100));
            assert_eq!(tap.harvest().len(), 1, "[{backend}] learned");
            hv.kill_domain(gdom);
            hv.restart_domain(gdom, incarnation(false));
            hv.run_until(Time::ZERO + Dur::millis(200));
            tap.inject(eth_frame(GUEST_MAC, TAP_MAC, 100));
            hv.wake_external(d0);
            hv.run_until(Time::ZERO + Dur::secs(1));
            assert_eq!(hv.exit_code(gdom), Some(100), "[{backend}] delivered");
        }
    }

    #[test]
    fn oversize_tap_frame_is_dropped_and_the_port_keeps_flowing() {
        for backend in Backend::ALL {
            let xs = Xenstore::new();
            let tap = Tap::new(TAP_MAC);
            let mut dom0 = DriverDomain::new(xs.clone());
            dom0.add_tap(tap.clone());
            let stats = dom0.stats_handle();
            let mut hv = Hypervisor::new();
            let d0 = hv.create_domain("dom0", 512, Box::new(dom0));
            let (front, mut nh) = backend.net(xs, "g", GUEST_MAC, CopyDiscipline::ZeroCopy);
            let mut guest = UnikernelGuest::new(move |_env, rt| {
                rt.clone()
                    .spawn(async move { nh.rx.recv().await.expect("frame from tap").len() as i64 })
            });
            guest.add_device(front);
            let gdom = hv.create_domain("guest", 64, Box::new(guest));
            hv.run_until(Time::ZERO + Dur::millis(100));
            // Over a page: no posted buffer could ever take it.
            tap.inject(eth_frame(GUEST_MAC, TAP_MAC, 5000));
            tap.inject(eth_frame(GUEST_MAC, TAP_MAC, 100));
            hv.wake_external(d0);
            hv.run_until(Time::ZERO + Dur::secs(1));
            assert_eq!(
                hv.exit_code(gdom),
                Some(100),
                "[{backend}] the next frame got through"
            );
            assert_eq!(stats.lock().frames_dropped_oversize, 1, "[{backend}]");
        }
    }
}
