//! netfront — the guest-side Ethernet driver (paper §3.4).
//!
//! "Xen devices consist of a frontend driver in the guest VM, and a backend
//! driver that multiplexes frontend requests." The frontend owns transmit
//! and receive queues, a pool of granted I/O pages per queue pair, and an
//! event channel per pair. Requests never carry packet data — only grant
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
use mirage_hypervisor::{DomainEnv, DomainId};
use mirage_runtime::channel::{self, Receiver, Sender};
use mirage_runtime::{DeviceService, Runtime};

use crate::driver::{Backend, NetDriver};
use crate::transport::{find_backend, DataBuf, Dir, FrontTransport, Link, Outstanding};
use crate::xenstore::Xenstore;

/// Receive buffers posted per RX queue.
pub const RX_BUFFERS: usize = 24;
/// Transmit pages pooled per TX queue.
pub const TX_BUFFERS: usize = 24;
/// Frames one stack queue may have waiting for a TX buffer before tail-drop.
pub const TX_BACKLOG_CAP: usize = 256;
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

/// Prices moving `len` payload bytes from the stack into the granted I/O
/// page, per the interface's [`CopyDiscipline`].
fn charge_tx(discipline: CopyDiscipline, env: &mut DomainEnv<'_>, len: usize) {
    match discipline {
        CopyDiscipline::ZeroCopy => {
            // The single serialise-into-I/O-page write.
            let c = env.costs().copy(len);
            env.consume(c);
        }
        CopyDiscipline::UserKernelCopy => {
            let c = env.costs().syscall + env.costs().copy(len) + env.costs().copy(len);
            env.consume(c);
        }
    }
}

/// Prices receiving `len` payload bytes, per the [`CopyDiscipline`].
fn charge_rx(discipline: CopyDiscipline, env: &mut DomainEnv<'_>, len: usize) {
    match discipline {
        CopyDiscipline::ZeroCopy => {
            // Page is mapped and sliced; no copy ("received pages are
            // passed directly to the application", §3.4.1).
        }
        CopyDiscipline::UserKernelCopy => {
            let c = env.costs().syscall + env.costs().copy(len);
            env.consume(c);
        }
    }
}

/// One TX/RX queue pair with its page pools.
struct Pair<T> {
    tx: T,
    rx: T,
    /// TX pages not out with the backend.
    tx_free: Vec<(GrantRef, SharedPage)>,
    /// TX pages out with the backend, by request token.
    tx_inflight: Outstanding<(GrantRef, SharedPage)>,
    /// Posted RX buffers, by request token.
    rx_bufs: Outstanding<(GrantRef, SharedPage)>,
    /// Frames awaiting a TX buffer; each remembers its stack queue so its
    /// serialise-into-I/O-page charge lands on the owning vCPU's lane.
    backlog: VecDeque<(usize, PktBuf)>,
}

impl<T: FrontTransport> Pair<T> {
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
/// The stack sees one handle per queue whatever the ABI. Underneath, the
/// transport decides how many ring pairs the queues share: a Xen NIC
/// multiplexes them all over one pair and classifies received frames here
/// by RSS flow hash ([`crate::rss`]); a virtio NIC has a pair — and an
/// event channel steered to the owning vCPU — per queue, classified by
/// the backend. Either way each stack worker sees only its own flows, and
/// cross-core handoff moves `PktBuf` views (refcount bumps), never bytes.
pub(crate) struct Netif<T> {
    dir: Dir,
    mac: [u8; 6],
    discipline: CopyDiscipline,
    link: Link,
    pairs: Vec<Pair<T>>,
    /// One event channel per pair, once connected.
    ports: Vec<Port>,
    /// Per-queue TX intake (stack workers -> driver), drained in fixed
    /// queue order each service pass.
    from_stack: Vec<Receiver<PktBuf>>,
    /// Per-queue RX hand-off (driver -> stack workers).
    to_stack: Vec<Sender<PktBuf>>,
    /// One stack queue's intake, moved out of its channel in one go.
    intake: VecDeque<PktBuf>,
    /// Frames a pass received for each stack queue, handed over in one
    /// go per queue, in the order the queues first got a frame.
    delivered: Vec<VecDeque<PktBuf>>,
    delivery_order: Vec<usize>,
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
            intake: VecDeque::new(),
            delivered: (0..queues).map(|_| VecDeque::new()).collect(),
            delivery_order: Vec::with_capacity(queues),
            counts: NetifStats::default(),
            stats,
        };
        (Box::new(front), handles)
    }

    fn advertise(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let Some(backend) = find_backend(env, &self.dir.xs) else {
            return false;
        };
        let queues = T::advertise_net(env, &self.dir, backend, self.from_stack.len());
        self.pairs = queues
            .into_iter()
            .map(|(tx, rx)| Pair {
                tx,
                rx,
                tx_free: Vec::new(),
                tx_inflight: Outstanding::default(),
                rx_bufs: Outstanding::default(),
                backlog: VecDeque::new(),
            })
            .collect();
        let mac = self.mac.map(|b| format!("{b:02x}")).join(":");
        self.dir.write(env, "mac", mac);
        self.dir.write(env, "state", "initialising");
        self.link = Link::Advertised(backend);
        true
    }

    fn connect(&mut self, env: &mut DomainEnv<'_>, backend: DomainId) -> bool {
        let (count, pairs) = (self.pairs.len(), &mut self.pairs);
        let mut fill = |env: &mut DomainEnv<'_>, p: usize| pairs[p].fill(env, backend);
        let Some(ports) = T::attach_net(env, &self.dir, backend, count, &mut fill) else {
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
        let entry_lane = env.current_vcpu();
        let (pairs, queues) = (self.pairs.len(), self.to_stack.len());
        // Queue q's frames ride pair q % pairs; each stack worker gets its
        // own burst quota, so eight cores flushing at once over one pair
        // don't tail-drop each other's segments.
        let backlog_cap = TX_BACKLOG_CAP * queues.div_ceil(pairs);
        for (q, intake) in self.from_stack.iter_mut().enumerate() {
            let backlog = &mut self.pairs[q % pairs].backlog;
            intake.drain_into(&mut self.intake);
            for frame in self.intake.drain(..) {
                backlog.push_back((q, frame));
                if backlog.len() > backlog_cap {
                    backlog.pop_front();
                    self.counts.tx_drops += 1;
                }
            }
        }
        for (p, (pair, &port)) in self.pairs.iter_mut().zip(&self.ports).enumerate() {
            let _ = env.evtchn_consume(port);

            // Reclaim completed transmit pages.
            while let Some(done) = pair.tx.reap() {
                if let Some(buf) = pair.tx_inflight.remove(done.token) {
                    pair.tx_free.push(buf);
                    progressed = true;
                }
            }

            // Deliver received frames and repost their buffers. Reading
            // the granted page models the DMA transfer, so it is priced by
            // charge_rx, not counted as a software copy; from here the
            // frame travels by reference. Its cost is charged on the lane
            // of the vCPU owning its queue — the per-core ingress model.
            while let Some(done) = pair.rx.reap() {
                let Some((gref, page)) = pair.rx_bufs.remove(done.token) else {
                    continue;
                };
                // The length is the backend's word: never past the page.
                let len = (done.len as usize).min(MAX_FRAME);
                let frame = PktBuf::from_vec(page.read(|b| b[..len].to_vec()));
                // A pair per queue arrives classified; a shared pair is
                // classified here.
                let q = if pairs == queues {
                    p
                } else {
                    crate::rss::rx_queue(&frame, queues)
                };
                env.on_vcpu(q % env.vcpus());
                charge_rx(self.discipline, env, len);
                env.on_vcpu(entry_lane);
                self.counts.rx_frames += 1;
                self.counts.rx_bytes += len as u64;
                if self.delivered[q].is_empty() {
                    self.delivery_order.push(q);
                }
                self.delivered[q].push_back(frame);
                pair.post_rx(gref, page);
                progressed = true;
            }
            for q in self.delivery_order.drain(..) {
                let _ = self.to_stack[q].send_all(&mut self.delivered[q]);
                self.delivered[q].clear();
            }

            // Transmit queued frames.
            while let Some((_, frame)) = pair.backlog.front() {
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
                let (src_q, frame) = pair.backlog.pop_front().expect("peeked");
                page.write(|b| b[..frame.len()].copy_from_slice(&frame));
                // Serialisation into the I/O page is the sending core's work.
                env.on_vcpu(src_q % env.vcpus());
                charge_tx(self.discipline, env, frame.len());
                env.on_vcpu(entry_lane);
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
            // Arm notifications before blocking; if completions raced in,
            // go around again instead of sleeping (the §3.5.1 footnote
            // protocol).
            progressed |= pair.tx.arm();
            progressed |= pair.rx.arm();
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

    fn watch_ports(&self) -> &[Port] {
        &self.ports
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
    use crate::transport::{BackQueue, Probe, PROBES};
    use mirage_hypervisor::{Dur, Guest, Hypervisor, Step, Time, Wake};
    use mirage_runtime::UnikernelGuest;

    /// A driver domain that attaches the first NIC it finds and completes
    /// one of its RX buffers claiming far more bytes than a page holds.
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
            let mut ports = Vec::new();
            if let Some((port, _tx, rx)) = &mut self.nic {
                ports.push(*port);
                let _ = env.evtchn_consume(*port);
                if !self.lied {
                    if let Some(Ok(req)) = rx.take(env) {
                        rx.complete(env, req.token, 60_000, true);
                        rx.publish();
                        env.evtchn_notify(*port).expect("bound by the frontend");
                        self.lied = true;
                    }
                }
                rx.arm();
            }
            Step::Yield(Wake {
                deadline: None,
                ports,
            })
        }
    }

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
        }
    }
}
