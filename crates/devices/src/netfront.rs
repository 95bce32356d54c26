//! netfront — the guest-side Ethernet driver (paper §3.4).
//!
//! "Xen devices consist of a frontend driver in the guest VM, and a backend
//! driver that multiplexes frontend requests." The frontend owns a
//! transmit and a receive queue, a pool of granted I/O pages and an event
//! channel per stack queue. Requests never carry packet data — only grant
//! references — so the data path is the zero-copy page-passing scheme of
//! §3.4.1. It is written once over `transport::FrontTransport`; which ring ABI
//! carries the requests is the type parameter
//! [`Backend::net`](crate::driver::Backend::net) picks.
//!
//! The [`CopyDiscipline`] knob prices the two architectures the paper
//! compares: a unikernel writes wire bytes straight into the granted I/O
//! page ([`CopyDiscipline::ZeroCopy`]); a conventional OS pays a syscall
//! plus a user↔kernel copy on every packet
//! ([`CopyDiscipline::UserKernelCopy`]).

use std::collections::VecDeque;
use std::sync::Arc;

use mirage_testkit::sync::Mutex;

use mirage_cstruct::PktBuf;
use mirage_hypervisor::event::Port;
use mirage_hypervisor::grant::{GrantRef, SharedPage};
use mirage_hypervisor::{DomainEnv, DomainId, Dur};
use mirage_runtime::channel::{self, Receiver, Sender};
use mirage_runtime::{DeviceService, Runtime};

use crate::driver::{Backend, NetDriver};
use crate::transport::{
    advertise_nic, connect_nic, find_backend, DataBuf, Dir, FrontTransport, Gate, Link, Outstanding,
};
use crate::xenstore::Xenstore;

/// Receive buffers posted per RX queue.
pub const RX_BUFFERS: usize = 24;
/// Transmit pages pooled per TX queue.
pub const TX_BUFFERS: usize = 24;
/// Frames one stack queue may have waiting for a TX buffer; past it the
/// oldest is dropped.
pub const TX_BACKLOG_CAP: usize = 256;
/// Shortest frame: an Ethernet header.
pub const MIN_FRAME: usize = 14;
/// Maximum frame size (one page; jumbo frames are not modelled).
pub const MAX_FRAME: usize = 4096;

/// How packet payloads cross the guest/driver boundary — the architectural
/// difference the paper's network benchmarks measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDiscipline {
    /// Mirage: the stack serialises directly into the granted I/O page;
    /// no further copies, no syscalls.
    ZeroCopy,
    /// Conventional OS: each packet pays a syscall trap plus a
    /// user↔kernel copy before reaching the granted page.
    UserKernelCopy,
}

/// Per-interface counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetifStats {
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Frames received.
    pub rx_frames: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames dropped at the transmit backlog.
    pub tx_drops: u64,
    /// Frontend→backend event-channel notifications on the data plane.
    /// One service pass rings at most once per queue pair, and only when
    /// the backend's announced event mark asks for it — so this grows
    /// O(bursts), not O(frames).
    pub doorbells: u64,
}

/// The stack-facing half of a network interface: send and receive whole
/// Ethernet frames.
pub struct NetHandle {
    /// Interface MAC address.
    pub mac: [u8; 6],
    /// Frame transmit queue (stack → driver). Frames travel by reference:
    /// the driver writes them into the granted page without cloning.
    pub tx: Sender<PktBuf>,
    /// Frame receive queue (driver → stack). Each frame is an owned view
    /// the stack slices further without copying.
    pub rx: Receiver<PktBuf>,
    stats: Arc<Mutex<NetifStats>>,
}

impl std::fmt::Debug for NetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetHandle({:02x?})", self.mac)
    }
}

impl NetHandle {
    /// Current interface counters.
    pub fn stats(&self) -> NetifStats {
        *self.stats.lock()
    }
}

/// Prices moving a `len`-byte frame through a granted I/O page on vCPU
/// `lane`. A transmitted frame is serialised into the page, one copy; a
/// received one is sliced out of it, none ("received pages are passed
/// directly to the application", §3.4.1). A
/// [`CopyDiscipline::UserKernelCopy`] interface pays a syscall and a
/// user↔kernel copy on top.
fn charge(discipline: CopyDiscipline, env: &mut DomainEnv<'_>, lane: usize, len: usize, tx: bool) {
    let costs = env.costs();
    let mut c = if tx { costs.copy(len) } else { Dur::ZERO };
    if discipline == CopyDiscipline::UserKernelCopy {
        c += costs.syscall + costs.copy(len);
    }
    env.consume_on(lane, c);
}

/// One stack queue's TX/RX ring pair with its page pools.
struct Pair<T> {
    tx: T,
    rx: T,
    /// TX pages not out with the backend.
    tx_free: Vec<(GrantRef, SharedPage)>,
    /// TX pages out with the backend, by request token.
    tx_inflight: Outstanding<(GrantRef, SharedPage)>,
    /// Posted RX buffers, by request token.
    rx_bufs: Outstanding<(GrantRef, SharedPage)>,
    /// Frames awaiting a TX buffer.
    backlog: VecDeque<PktBuf>,
    /// Whether this pass reaps the pair's rings.
    gate: Gate,
}

impl<T: FrontTransport> Pair<T> {
    fn new((tx, rx): (T, T)) -> Pair<T> {
        Pair {
            tx,
            rx,
            tx_free: Vec::new(),
            tx_inflight: Outstanding::default(),
            rx_bufs: Outstanding::default(),
            backlog: VecDeque::new(),
            gate: Gate::default(),
        }
    }

    fn post_rx(&mut self, gref: GrantRef, page: SharedPage) {
        let token = self.rx.post(&[], DataBuf::page(gref, MAX_FRAME, true));
        self.rx_bufs.insert(token, (gref, page));
    }

    /// Posts the receive buffers and pre-grants the transmit pool
    /// (read-only: the backend only reads TX payloads). The handshake
    /// kicks the backend unconditionally, so the doorbell is moot.
    fn fill(&mut self, env: &mut DomainEnv<'_>, backend: DomainId) {
        for _ in 0..RX_BUFFERS {
            let page = SharedPage::new();
            let gref = env.grant(backend, page.clone(), true);
            self.post_rx(gref, page);
        }
        self.rx.publish();
        for _ in 0..TX_BUFFERS {
            let page = SharedPage::new();
            self.tx_free
                .push((env.grant(backend, page.clone(), false), page));
        }
    }
}

/// The NIC frontend; plugs into a
/// [`UnikernelGuest`](mirage_runtime::UnikernelGuest) as a
/// [`DeviceService`], created through
/// [`Backend::net`](crate::driver::Backend::net).
///
/// The stack sees one handle per queue, and on either ABI queue *q* has a
/// ring pair of its own and an event channel bound to vCPU `q mod vcpus`.
/// The switch classifies received frames to a pair by RSS flow hash
/// ([`crate::rss`]), so each stack worker sees only its own flows, and
/// cross-core handoff moves `PktBuf` views (refcount bumps), never bytes.
pub(crate) struct Netif<T> {
    dir: Dir,
    mac: [u8; 6],
    discipline: CopyDiscipline,
    link: Link,
    /// Pair *q* carries stack queue *q*.
    pairs: Vec<Pair<T>>,
    /// One event channel per pair, once connected.
    ports: Vec<Port>,
    /// Per-queue TX intake (stack workers -> driver).
    from_stack: Vec<Receiver<PktBuf>>,
    /// Per-queue RX hand-off (driver -> stack workers).
    to_stack: Vec<Sender<PktBuf>>,
    /// The frames a pair received this pass, handed over in one go.
    delivered: VecDeque<PktBuf>,
    /// The counters, kept here and copied out to the handles once per
    /// pass that moved them: this driver is their only writer.
    counts: NetifStats,
    stats: Arc<Mutex<NetifStats>>,
}

impl<T: FrontTransport> Netif<T> {
    /// Creates the driver and one stack-facing handle per queue. `name`
    /// keys the xenstore handshake and must be unique per interface.
    pub(crate) fn create(
        xs: Xenstore,
        name: String,
        mac: [u8; 6],
        discipline: CopyDiscipline,
        queues: usize,
    ) -> (Box<dyn NetDriver>, Vec<NetHandle>) {
        assert!(queues > 0, "a NIC needs at least one queue");
        let stats = Arc::new(Mutex::new(NetifStats::default()));
        let mut from_stack = Vec::with_capacity(queues);
        let mut to_stack = Vec::with_capacity(queues);
        let mut handles = Vec::with_capacity(queues);
        for _ in 0..queues {
            let (tx_in, tx_out) = channel::channel();
            let (rx_in, rx_out) = channel::channel();
            from_stack.push(tx_out);
            to_stack.push(rx_in);
            handles.push(NetHandle {
                mac,
                tx: tx_in,
                rx: rx_out,
                stats: Arc::clone(&stats),
            });
        }
        let front = Netif::<T> {
            dir: Dir {
                xs,
                base: format!("device/{}/{name}", T::NET_DIR),
            },
            mac,
            discipline,
            link: Link::Init,
            pairs: Vec::new(),
            ports: Vec::new(),
            from_stack,
            to_stack,
            delivered: VecDeque::new(),
            counts: NetifStats::default(),
            stats,
        };
        (Box::new(front), handles)
    }

    fn advertise(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let Some(backend) = find_backend(env, &self.dir.xs) else {
            return false;
        };
        let queues = advertise_nic(env, &self.dir, backend, self.from_stack.len());
        self.pairs = queues.into_iter().map(Pair::new).collect();
        let mac = self.mac.map(|b| format!("{b:02x}")).join(":");
        self.dir.write(env, "mac", mac);
        self.dir.write(env, "state", "initialising");
        self.link = Link::Advertised(backend);
        true
    }

    fn connect(&mut self, env: &mut DomainEnv<'_>, backend: DomainId) -> bool {
        let (queues, pairs) = (self.pairs.len(), &mut self.pairs);
        let fill = |env: &mut DomainEnv<'_>, q: usize| pairs[q].fill(env, backend);
        let Some(ports) = connect_nic(env, &self.dir, backend, queues, fill) else {
            return false;
        };
        self.ports = ports;
        env.observe(&format!("connected:{}", self.dir.base));
        self.link = Link::Connected;
        true
    }

    fn pass(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let mut progressed = false;
        let counted = self.counts;
        for (q, (pair, &port)) in self.pairs.iter_mut().zip(&self.ports).enumerate() {
            // The queue's copies are charged on the lane of the vCPU its
            // event channel is bound to — the per-core model.
            let lane = env.evtchn_vcpu(port).unwrap_or(0);
            let fired = pair.gate.open(env, port);

            // Take what the stack queued; past the cap the oldest go.
            self.from_stack[q].drain_into(&mut pair.backlog);
            while pair.backlog.len() > TX_BACKLOG_CAP {
                pair.backlog.pop_front();
                self.counts.tx_drops += 1;
            }

            // Reclaim completed transmit pages. Completions come only
            // through a channel that fired (or a last arm that raced).
            while let Some(done) = fired.then(|| pair.tx.reap()).flatten() {
                if let Some(buf) = pair.tx_inflight.remove(done.token) {
                    pair.tx_free.push(buf);
                    progressed = true;
                }
            }

            // Deliver received frames and repost their buffers. Reading
            // the granted page models the DMA transfer, so it is priced by
            // `charge`, not counted as a software copy; from here the
            // frame travels by reference. A failed completion, or one too
            // short to hold a frame, delivers nothing: its buffer goes
            // straight back.
            while let Some(done) = fired.then(|| pair.rx.reap()).flatten() {
                let Some((gref, page)) = pair.rx_bufs.remove(done.token) else {
                    continue;
                };
                // The length is the backend's word: never past the page.
                let len = (done.len as usize).min(MAX_FRAME);
                if done.ok && len >= MIN_FRAME {
                    let frame = PktBuf::from_vec(page.read(|b| b[..len].to_vec()));
                    charge(self.discipline, env, lane, len, false);
                    self.counts.rx_frames += 1;
                    self.counts.rx_bytes += len as u64;
                    self.delivered.push_back(frame);
                }
                pair.post_rx(gref, page);
                progressed = true;
            }
            let _ = self.to_stack[q].send_all(&mut self.delivered);
            self.delivered.clear();

            // Transmit queued frames.
            while let Some(frame) = pair.backlog.front() {
                if frame.len() > MAX_FRAME {
                    pair.backlog.pop_front();
                    self.counts.tx_drops += 1;
                    continue;
                }
                if !pair.tx.room() {
                    break;
                }
                let Some((gref, page)) = pair.tx_free.pop() else {
                    break;
                };
                let frame = pair.backlog.pop_front().expect("peeked");
                page.write(|b| b[..frame.len()].copy_from_slice(&frame));
                // Serialisation into the I/O page is the sending core's work.
                charge(self.discipline, env, lane, frame.len(), true);
                let token = pair.tx.post(&[], DataBuf::page(gref, frame.len(), false));
                pair.tx_inflight.insert(token, (gref, page));
                self.counts.tx_frames += 1;
                self.counts.tx_bytes += frame.len() as u64;
                progressed = true;
            }

            // One index update per queue and one doorbell per pair per
            // pass, and only if the burst crossed the backend's event mark.
            if pair.rx.publish() | pair.tx.publish() {
                let _ = env.evtchn_notify(port);
                self.counts.doorbells += 1;
            }
            // Re-arm what was reaped before blocking; if completions
            // raced in, go around again instead of sleeping (the §3.5.1
            // footnote protocol).
            progressed |= pair.gate.close(|| pair.tx.arm() | pair.rx.arm());
        }
        if self.counts != counted {
            *self.stats.lock() = self.counts;
        }
        progressed
    }
}

impl<T: FrontTransport> DeviceService for Netif<T> {
    fn service(&mut self, env: &mut DomainEnv<'_>, _rt: &Runtime) -> bool {
        match self.link {
            Link::Init => self.advertise(env),
            Link::Advertised(backend) => {
                // Run the data plane immediately after connecting.
                self.connect(env, backend) && {
                    self.pass(env);
                    true
                }
            }
            Link::Connected => self.pass(env),
        }
    }
}

impl<T: FrontTransport> NetDriver for Netif<T> {
    fn backend(&self) -> Backend {
        T::BACKEND
    }

    fn mac(&self) -> [u8; 6] {
        self.mac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netback::DriverDomain;
    use crate::switch::Tap;
    use crate::transport::{BackQueue, Probe, PROBES};
    use mirage_hypervisor::{Dur, Guest, Hypervisor, Step, Time, Wake};
    use mirage_runtime::UnikernelGuest;

    /// A driver domain that attaches the first NIC it finds, completes one
    /// of its RX buffers failed, then the next claiming far more bytes
    /// than a page holds.
    struct LyingBackend {
        xs: Xenstore,
        registered: bool,
        nic: Option<(Port, BackQueue, BackQueue)>,
        lied: bool,
    }

    impl Guest for LyingBackend {
        fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
            if !self.registered {
                self.xs.register_watcher(env.domid());
                self.xs
                    .write(env, "backend-domid", &env.domid().0.to_string());
                self.registered = true;
            }
            for (dir, probe) in &PROBES {
                let Probe::Nic(attach) = probe else { continue };
                for key in self.xs.keys_with_prefix(dir) {
                    let Some(base) = key.strip_suffix("/state") else {
                        continue;
                    };
                    if self.nic.is_none() {
                        let dir = Dir {
                            xs: self.xs.clone(),
                            base: base.to_owned(),
                        };
                        self.nic = attach(env, &dir).map(|mut pairs| pairs.remove(0));
                    }
                }
            }
            if let Some((port, _tx, rx)) = &mut self.nic {
                let _ = env.evtchn_consume(*port);
                if !self.lied {
                    // A header-less virtqueue drops the status: there the
                    // failed completion reads as ok with length 0.
                    if let Some(Ok(req)) = rx.take(env) {
                        rx.complete(env, req.token, 0, false);
                    }
                    if let Some(Ok(req)) = rx.take(env) {
                        rx.complete(env, req.token, 60_000, true);
                        rx.publish();
                        env.evtchn_notify(*port).expect("bound by the frontend");
                        self.lied = true;
                    }
                }
                rx.arm();
            }
            Step::Yield(Wake::never())
        }
    }

    /// The handle's first frame is the lying one, clamped; the failed
    /// completion before it was reposted, not delivered.
    #[test]
    fn rx_length_from_the_backend_is_clamped_to_the_page() {
        for backend in Backend::ALL {
            let xs = Xenstore::new();
            let mut hv = Hypervisor::new();
            let dom0 = LyingBackend {
                xs: xs.clone(),
                registered: false,
                nic: None,
                lied: false,
            };
            hv.create_domain("dom0", 512, Box::new(dom0));
            let (front, mut nh) =
                backend.net(xs, "g", [2, 0, 0, 0, 0, 1], CopyDiscipline::ZeroCopy);
            let stats = Arc::clone(&nh.stats);
            let mut guest = UnikernelGuest::new(move |_env, rt| {
                rt.clone()
                    .spawn(async move { nh.rx.recv().await.expect("a frame").len() as i64 })
            });
            guest.add_device(front);
            let gdom = hv.create_domain("guest", 64, Box::new(guest));
            hv.run_until(Time::ZERO + Dur::secs(1));
            assert_eq!(
                hv.exit_code(gdom),
                Some(MAX_FRAME as i64),
                "[{backend}] clamped, not trusted"
            );
            assert_eq!(stats.lock().rx_frames, 1, "[{backend}] and nothing else");
        }
    }

    const TAP_MAC: [u8; 6] = [2, 0, 0, 0, 0, 1];
    const GUEST_MAC: [u8; 6] = [2, 0, 0, 0, 0, 0xAA];

    /// A frame from the tap to the guest: `ethertype`, then `l3`.
    fn to_guest(ethertype: [u8; 2], l3: &[u8]) -> Vec<u8> {
        [&GUEST_MAC[..], &TAP_MAC, &ethertype, l3].concat()
    }

    /// An IPv4 and a TCP header, from `src_ip:src_port` to port 80.
    fn tcp(src_ip: [u8; 4], src_port: u16) -> Vec<u8> {
        let mut l3 = vec![0u8; 40];
        l3[0] = 0x45;
        l3[9] = 6;
        l3[12..16].copy_from_slice(&src_ip);
        l3[20..22].copy_from_slice(&src_port.to_be_bytes());
        l3[22..24].copy_from_slice(&80u16.to_be_bytes());
        l3
    }

    /// The NIC under test, the guest's only device, reporting the vCPU
    /// each event channel the guest holds is bound to after every service
    /// pass.
    struct Bindings {
        nic: Box<dyn NetDriver>,
        vcpus: Arc<Mutex<Vec<usize>>>,
    }

    impl DeviceService for Bindings {
        fn service(&mut self, env: &mut DomainEnv<'_>, rt: &Runtime) -> bool {
            let progressed = self.nic.service(env, rt);
            let held = (0..).map_while(|p| env.evtchn_vcpu(Port(p)).ok());
            *self.vcpus.lock() = held.collect();
            progressed
        }
    }

    /// One NIC layout on both ABIs: a 4-queue NIC in a 4-vCPU guest binds
    /// one event channel per queue, channel q to vCPU q, advertises
    /// `queues = 4`, and every frame of 64 TCP flows comes out of the
    /// handle the switch's RSS hash names — ARP out of handle 0.
    #[test]
    fn every_stack_queue_has_its_own_ring_pair_and_channel_on_both_abis() {
        const QUEUES: usize = 4;
        let arp = to_guest([0x08, 0x06], &[0u8; 28]);
        let flows = (0..64u16)
            .map(|f| to_guest([0x08, 0x00], &tcp([10, 0, 0, 2 + f as u8 % 5], 40_000 + f)));
        let sent: Vec<Vec<u8>> = flows.chain([arp.clone()]).collect();
        for backend in Backend::ALL {
            let xs = Xenstore::new();
            let tap = Tap::new(TAP_MAC);
            let mut dom0 = DriverDomain::new(xs.clone());
            dom0.add_tap(tap.clone());
            let mut hv = Hypervisor::new();
            let d0 = hv.create_domain("dom0", 512, Box::new(dom0));
            let (nic, mut handles) = backend.net_multiqueue(
                xs.clone(),
                "mq",
                GUEST_MAC,
                CopyDiscipline::ZeroCopy,
                QUEUES,
            );
            let vcpus = Arc::new(Mutex::new(Vec::new()));
            let nic = Bindings {
                nic,
                vcpus: Arc::clone(&vcpus),
            };
            let mut guest = UnikernelGuest::with_runtime(Runtime::smp(QUEUES), |_env, rt| {
                let rt2 = rt.clone();
                rt.spawn(async move {
                    rt2.sleep(Dur::secs(60)).await;
                    0
                })
            });
            guest.add_device(Box::new(nic));
            hv.create_domain_vcpus("guest", 64, Box::new(guest), QUEUES);
            hv.run_until(Time::ZERO + Dur::millis(100));
            for frame in &sent {
                tap.inject(frame.clone());
            }
            hv.wake_external(d0);
            hv.run_until(Time::ZERO + Dur::secs(1));

            assert_eq!(
                *vcpus.lock(),
                [0, 1, 2, 3],
                "[{backend}] channel q on vCPU q"
            );
            let key = xs
                .keys_with_prefix("device/")
                .into_iter()
                .find(|k| k.ends_with("/mq/queues"));
            let queues = key.and_then(|k| xs.read_host(&k));
            assert_eq!(
                queues.as_deref(),
                Some("4"),
                "[{backend}] the directory's queue count"
            );
            let mut got = Vec::new();
            for (q, handle) in handles.iter_mut().enumerate() {
                let mut tcp_frames = 0;
                while let Some(frame) = handle.rx.try_recv() {
                    let want = if frame[..] == arp[..] {
                        0
                    } else {
                        crate::rss::rx_queue(&frame, QUEUES)
                    };
                    assert_eq!(q, want, "[{backend}] frame out of the wrong handle");
                    tcp_frames += usize::from(frame[..] != arp[..]);
                    got.push(frame.to_vec());
                }
                assert!(
                    tcp_frames > 0,
                    "[{backend}] queue {q} got no flow: the test spreads nothing"
                );
            }
            got.sort();
            let mut want = sent.clone();
            want.sort();
            assert_eq!(got, want, "[{backend}] every frame, once");
        }
    }
}
