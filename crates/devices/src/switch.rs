//! The virtual switch: netback's data path in the driver domain.
//!
//! Every guest NIC is a `SwitchPort` — a `Vec` of TX/RX queue pairs over
//! `transport::BackTransport`, one per stack queue on either ABI — and
//! every port goes through the same ingest, MAC learning, link
//! conditioning, forwarding and delivery code. A multi-queue port
//! delivers each frame into the pair of the queue [`crate::rss`] names
//! for its flow, so every flow lands on one queue — and one vCPU — and
//! on the stack worker whose ephemeral ports `rss` also picked.
//!
//! Every frame takes one route (`Switch::route`) to a pair's out-queue
//! and enters an RX page in one place (`fill`), at that pair's turn in the
//! delivery loop: a guest's frame straight from its TX page if it goes in
//! the pass it was sent in, else from a copy (DESIGN.md §13).
//!
//! Whatever a guest posts is hostile until checked: a TX request must be
//! a device-readable buffer of `MIN_FRAME..=MAX_FRAME` bytes, an RX
//! buffer must be device-writable, on a page granted writable, and large
//! enough for the frame at hand. Anything else is completed failed and
//! counted in [`DriverStats::requests_rejected`]; the switch never
//! indexes a page by a guest-supplied length it has not bounded.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

use mirage_testkit::hash::DetHashMap;
use mirage_testkit::wheel::TimerWheel;

use mirage_cstruct::PktBuf;
use mirage_hypervisor::event::Port;
use mirage_hypervisor::grant::SharedPage;
use mirage_hypervisor::{DomainEnv, Dur, Time};

use crate::netback::DriverStats;
use crate::netem::Netem;
use crate::netfront::{MAX_FRAME, MIN_FRAME};
use crate::transport::{map_cached, BackQueue, DataBuf, Gate, MapCache, NicQueues, Request};
use crate::virtio::QUEUE_SIZE;

/// Broadcast MAC.
pub const MAC_BROADCAST: [u8; 6] = [0xFF; 6];

/// Frames queued for a congested guest before tail drop.
const OUT_QUEUE_CAP: usize = 512;

/// Source MACs learned at most behind one port (a guest writes the source
/// of every frame it sends); past it the port learns none, new or moved.
const MACS_PER_PORT: usize = 256;

/// A host-side endpoint on the virtual switch — the harness's way to
/// source and sink raw frames without booting a guest (a tap device).
/// Like the driver domain it plugs into, it lives on one host thread.
#[derive(Clone, Default)]
pub struct Tap {
    inner: Rc<RefCell<TapInner>>,
}

#[derive(Default)]
struct TapInner {
    mac: [u8; 6],
    to_switch: VecDeque<PktBuf>,
    from_switch: VecDeque<PktBuf>,
}

impl std::fmt::Debug for Tap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tap({:02x?})", self.inner.borrow().mac)
    }
}

impl Tap {
    /// A tap with the given MAC.
    pub fn new(mac: [u8; 6]) -> Tap {
        Tap {
            inner: Rc::new(RefCell::new(TapInner {
                mac,
                ..TapInner::default()
            })),
        }
    }

    /// Queues a frame for injection into the switch. Call
    /// [`Hypervisor::wake_external`](mirage_hypervisor::Hypervisor::wake_external)
    /// on the driver domain afterwards so it notices.
    pub fn inject(&self, frame: impl Into<PktBuf>) {
        self.inner.borrow_mut().to_switch.push_back(frame.into());
    }

    /// Takes every frame the switch delivered to this tap.
    pub fn harvest(&self) -> Vec<PktBuf> {
        self.inner.borrow_mut().from_switch.drain(..).collect()
    }

    /// The tap's MAC address.
    pub fn mac(&self) -> [u8; 6] {
        self.inner.borrow().mac
    }
}

/// Admits a request the transport took: its buffer must satisfy `accept`
/// and its page must map. `Err` carries the token to complete failed.
fn admit(
    env: &mut DomainEnv<'_>,
    mapped: &mut MapCache,
    taken: Result<Request, u32>,
    writable: bool,
    accept: impl Fn(&DataBuf) -> bool,
) -> Result<(Request, SharedPage), u32> {
    let req = taken?;
    if !accept(&req.data) {
        return Err(req.token);
    }
    let page = map_cached(env, mapped, req.data.gref, writable).ok_or(req.token)?;
    Ok((req, page))
}

/// Takes the next RX request of `rx` and fills its buffer with `frame` —
/// the one place a frame enters a guest's page — staging the completion.
/// `None`: no buffer is posted. `Some(false)`: the request was unfit for
/// the frame and is completed failed and counted.
fn fill(
    env: &mut DomainEnv<'_>,
    rx: &mut BackQueue,
    mapped: &mut MapCache,
    frame: &Frame,
    counts: &mut DriverStats,
) -> Option<bool> {
    let len = frame.bytes(<[u8]>::len);
    let fits = |d: &DataBuf| d.device_writes && d.len as usize >= len;
    let taken = rx.take(env)?;
    let (req, page) = match admit(env, mapped, taken, true, fits) {
        Ok(admitted) => admitted,
        Err(token) => {
            rx.complete(env, token, 0, false);
            counts.requests_rejected += 1;
            return Some(false);
        }
    };
    let at = req.data.range(len);
    let put = |bytes: &[u8]| page.write(|b| b.get_mut(at).map(|w| w.copy_from_slice(bytes)));
    match frame {
        // A buffer on the page the frame is read from: read it out first.
        Frame::Sent(tx, _) if tx.same_page(&page) => put(&frame.bytes(<[u8]>::to_vec)),
        _ => frame.bytes(put),
    };
    // Outside any borrow: completing may write a status byte on the TX page.
    rx.complete(env, req.token, len as u32, true);
    Some(true)
}

/// A frame in the switch: the window of the TX page a guest sent it from,
/// read in place until its pass ends, or a copy the switch holds.
enum Frame {
    Sent(SharedPage, Range<usize>),
    Held(PktBuf),
}

impl Frame {
    /// Runs `f` over the frame's bytes (a window the transport bounded).
    fn bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        match self {
            Frame::Sent(page, at) => page.read(|b| f(b.get(at.clone()).unwrap_or_default())),
            Frame::Held(buf) => f(buf),
        }
    }

    /// The frame as a copy the switch holds: reading a window out of the
    /// granted page models the NIC's DMA; then the frame goes by reference.
    fn hold(self) -> PktBuf {
        match self {
            Frame::Held(buf) => buf,
            sent => PktBuf::from_vec(sent.bytes(<[u8]>::to_vec)),
        }
    }
}

/// One TX/RX queue pair of a port, with its event channel and the frames
/// waiting for its RX buffers.
struct QueuePair {
    port: Port,
    tx: BackQueue,
    rx: BackQueue,
    /// Whether this pass takes from the TX queue.
    gate: Gate,
    out_queue: VecDeque<Frame>,
}

/// A guest NIC's attachment to the switch.
struct SwitchPort {
    queues: Vec<QueuePair>,
    /// Guest data pages mapped so far.
    mapped: MapCache,
    /// MAC table entries that name this port.
    macs: usize,
    /// Set while the frontend has frames queued but no posted RX buffer —
    /// lets tail drops be attributed to a dead/stalled guest rather than
    /// ordinary congestion.
    rx_starved: bool,
}

impl SwitchPort {
    /// Queues `frame` at the pair its flow hashes to, tail-dropping when
    /// that output queue is full.
    fn deliver(&mut self, frame: Frame, counts: &mut DriverStats) {
        let q = frame.bytes(|b| crate::rss::rx_queue(b, self.queues.len()));
        let Some(pair) = self.queues.get_mut(q) else {
            return;
        };
        if pair.out_queue.len() >= OUT_QUEUE_CAP {
            if self.rx_starved {
                counts.frames_dropped_no_rx_buffer += 1;
            } else {
                counts.frames_dropped_congestion += 1;
            }
            return;
        }
        pair.out_queue.push_back(frame);
    }
}

/// Network fabric parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetProfile {
    /// Link bandwidth in bits per second (default: gigabit Ethernet, as in
    /// the paper's Figure 8 testbed).
    pub bandwidth_bps: u64,
}

impl Default for NetProfile {
    fn default() -> Self {
        NetProfile {
            bandwidth_bps: 1_000_000_000,
        }
    }
}

impl NetProfile {
    /// A 10 GbE fabric (for the "expect 10 Gb/s with offload" discussion).
    pub fn ten_gbe() -> NetProfile {
        NetProfile {
            bandwidth_bps: 10_000_000_000,
        }
    }

    /// A 40 GbE fabric: the SMP scaling bench uses it so the throughput
    /// matrix measures CPU scaling, not NIC line rate.
    pub fn forty_gbe() -> NetProfile {
        NetProfile {
            bandwidth_bps: 40_000_000_000,
        }
    }

    fn wire_time(&self, bytes: usize) -> Dur {
        Dur::nanos((bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }
}

/// The switch proper: ports, MAC table, taps and the link conditioner.
pub(crate) struct Switch {
    profile: NetProfile,
    ports: Vec<SwitchPort>,
    mac_table: DetHashMap<[u8; 6], usize>,
    pub(crate) taps: Vec<Tap>,
    /// The link conditioner; `None` is a perfect wire.
    pub(crate) netem: Option<Netem>,
    /// Frames the conditioner is holding, as `(ingress port, frame)` with
    /// `None` for a tap, by release time: ties leave in the order the
    /// conditioner saw them, keeping runs deterministic.
    delayed: TimerWheel<(Option<usize>, PktBuf)>,
    /// This pass's guest frames by ingress port; kept across passes.
    sent: Vec<(usize, Frame)>,
}

impl Switch {
    pub(crate) fn new(profile: NetProfile) -> Switch {
        Switch {
            profile,
            ports: Vec::new(),
            mac_table: DetHashMap::default(),
            taps: Vec::new(),
            netem: None,
            delayed: TimerWheel::new(),
            sent: Vec::new(),
        }
    }

    /// Plugs in a freshly attached NIC, one queue pair per event port, in
    /// place of port `replacing` (the dead port of a restarted frontend,
    /// whose MAC table entries stay) or as a new port. Returns its index.
    pub(crate) fn add_port(&mut self, pairs: NicQueues, replacing: Option<usize>) -> usize {
        let queues = pairs
            .into_iter()
            .map(|(port, tx, rx)| QueuePair {
                port,
                tx,
                rx,
                gate: Gate::default(),
                out_queue: VecDeque::new(),
            })
            .collect();
        let port = SwitchPort {
            queues,
            mapped: MapCache::default(),
            macs: replacing
                .and_then(|idx| self.ports.get(idx))
                .map_or(0, |p| p.macs),
            rx_starved: false,
        };
        match replacing.and_then(|idx| self.ports.get_mut(idx)) {
            Some(dead) => *dead = port,
            None => self.ports.push(port),
        }
        // A pass takes at most a ring of frames from each TX queue, and
        // `QUEUE_SIZE` bounds the rings of both ABIs: `sent` never grows
        // once the guests run.
        let queues: usize = self.ports.iter().map(|p| p.queues.len()).sum();
        self.sent.reserve(queues * usize::from(QUEUE_SIZE));
        replacing.unwrap_or(self.ports.len() - 1)
    }

    /// Re-arms the TX queues this pass took from before the driver domain
    /// blocks; `true` if a request raced in (another pass instead of a
    /// sleep).
    pub(crate) fn arm(&mut self) -> bool {
        let mut raced = false;
        for pair in self.ports.iter_mut().flat_map(|p| &mut p.queues) {
            raced |= pair.gate.close(|| pair.tx.arm());
            // Fresh RX buffers only matter while frames wait for one.
            if !pair.out_queue.is_empty() {
                raced |= pair.rx.arm();
            }
        }
        raced
    }

    /// When the link conditioner next releases a held frame.
    pub(crate) fn next_deadline(&self) -> Option<Time> {
        self.delayed.next_deadline().map(Time::from_nanos)
    }

    /// Routes `frame` from port `src` (`None`: a tap — no MAC learning, no
    /// flood self-exclusion) to the taps with its destination MAC (all on
    /// broadcast) and to the port that MAC was learned behind, else to every
    /// other port. A frame for several is held once: a refcount per copy.
    fn route(&mut self, src: Option<usize>, frame: Frame, counts: &mut DriverStats) {
        let macs = frame.bytes(|b| {
            let (dst, rest) = b.get(..MIN_FRAME)?.split_first_chunk::<6>()?;
            Some((*dst, *rest.first_chunk::<6>()?))
        });
        let Some((dst, source)) = macs else { return };
        // Learn where the source lives, new or moved from another port,
        // while its port has fewer than MACS_PER_PORT.
        if let Some(port) = src.filter(|&p| self.mac_table.get(&source) != Some(&p)) {
            if let Some(at) = self.ports.get_mut(port).filter(|p| p.macs < MACS_PER_PORT) {
                at.macs += 1;
                let old = self.mac_table.insert(source, port);
                if let Some(old) = old.and_then(|old| self.ports.get_mut(old)) {
                    old.macs -= 1;
                }
            }
        }
        counts.frames_switched += 1;

        let broadcast = dst == MAC_BROADCAST;
        let tapped = self.taps.iter().any(|t| broadcast || t.mac() == dst);
        let to = self.mac_table.get(&dst).copied().filter(|_| !broadcast);
        if let (Some(port), false) = (to.and_then(|p| self.ports.get_mut(p)), tapped) {
            return port.deliver(frame, counts);
        }
        let frame = frame.hold();
        for tap in &self.taps {
            let mut inner = tap.inner.borrow_mut();
            if broadcast || inner.mac == dst {
                inner.from_switch.push_back(frame.clone());
            }
        }
        // To its port, or flooded to every other one unless a tap took it.
        let flood = broadcast || !tapped;
        for (idx, port) in self.ports.iter_mut().enumerate() {
            if to.map_or(flood && Some(idx) != src, |p| p == idx) {
                port.deliver(Frame::Held(frame.clone()), counts);
            }
        }
    }

    /// Offer a frame to the link conditioner (if any) before switching it.
    /// Conditioned frames may be dropped, duplicated, corrupted or held in
    /// the delay queue until their release time. No port could ever
    /// receive a frame over [`MAX_FRAME`], so those stop here.
    fn offer(&mut self, now: Time, src: Option<usize>, frame: Frame, counts: &mut DriverStats) {
        if frame.bytes(<[u8]>::len) > MAX_FRAME {
            counts.frames_dropped_oversize += 1;
            return;
        }
        let outs = match self.netem.as_mut() {
            None => return self.route(src, frame, counts),
            Some(nm) => nm.apply(now, frame.hold()),
        };
        if outs.is_empty() {
            counts.frames_dropped_netem += 1;
            return;
        }
        for (release_at, frame) in outs {
            if release_at <= now {
                self.route(src, Frame::Held(frame), counts);
            } else {
                self.delayed.insert(release_at.as_nanos(), (src, frame));
            }
        }
    }

    /// One pass over the data path: release held frames, ingest from
    /// guests whose channel fired (or whose last arm raced) and from taps,
    /// deliver into posted RX buffers while frames wait. One index update
    /// and at most one interrupt per queue per direction. What happened is
    /// counted into `counts`.
    pub(crate) fn service(&mut self, env: &mut DomainEnv<'_>, counts: &mut DriverStats) -> bool {
        // Release frames whose conditioner-imposed delay has elapsed.
        let mut released = Vec::new();
        self.delayed
            .advance(env.now().as_nanos(), |_, held| released.push(held));
        let mut progressed = !released.is_empty();
        for (src, frame) in released {
            self.route(src, Frame::Held(frame), counts);
        }
        // Ingest frames from guests. On a multi-vCPU driver domain each
        // NIC's wire serialisation is charged on its own lane (a
        // multi-queue switch port), so two saturated ports don't
        // serialise behind one core; a 1-vCPU dom0 behaves as before.
        let entry_lane = env.current_vcpu();
        let sendable =
            |d: &DataBuf| !d.device_writes && (MIN_FRAME..=MAX_FRAME).contains(&(d.len as usize));
        for (idx, port) in self.ports.iter_mut().enumerate() {
            env.on_vcpu(idx % env.vcpus());
            for pair in &mut port.queues {
                let fired = pair.gate.open(env, pair.port);
                while let Some(taken) = fired.then(|| pair.tx.take(env)).flatten() {
                    progressed = true;
                    let (req, page) = match admit(env, &mut port.mapped, taken, false, sendable) {
                        Ok(admitted) => admitted,
                        Err(token) => {
                            pair.tx.complete(env, token, 0, false);
                            counts.requests_rejected += 1;
                            continue;
                        }
                    };
                    // Wire serialisation time for this NIC.
                    let len = req.data.len as usize;
                    env.consume(self.profile.wire_time(len));
                    // The guest reuses the page only after this step.
                    self.sent
                        .push((idx, Frame::Sent(page, req.data.range(len))));
                    pair.tx.complete(env, req.token, 0, true);
                }
                if pair.tx.publish() {
                    let _ = env.evtchn_notify(pair.port);
                }
            }
        }
        // Only a conditioner reads the clock, the entry lane's, after ingest.
        env.on_vcpu(entry_lane);
        let mut sent = std::mem::take(&mut self.sent);
        for (src, frame) in sent.drain(..) {
            self.offer(env.now(), Some(src), frame, counts);
        }
        self.sent = sent;
        // Ingest frames from taps.
        for t in 0..self.taps.len() {
            let next = |taps: &[Tap]| taps.get(t)?.inner.borrow_mut().to_switch.pop_front();
            while let Some(frame) = next(&self.taps) {
                env.consume(self.profile.wire_time(frame.len()));
                self.offer(env.now(), None, Frame::Held(frame), counts);
                progressed = true;
            }
        }
        // Deliver waiting frames into posted RX buffers, each pair at its
        // turn, where its RX work (a fresh page's `grant_map`) is charged.
        for SwitchPort {
            queues,
            mapped,
            rx_starved,
            ..
        } in &mut self.ports
        {
            for pair in queues {
                while let Some(frame) = pair.out_queue.front() {
                    let Some(filled) = fill(env, &mut pair.rx, mapped, frame, counts) else {
                        *rx_starved = true;
                        break;
                    };
                    *rx_starved = false;
                    progressed = true;
                    if filled {
                        pair.out_queue.pop_front();
                    }
                }
                // A frame left waiting leaves its TX page, which the guest
                // may reuse once this step ends.
                for frame in &mut pair.out_queue {
                    if let Frame::Sent(..) = frame {
                        *frame = Frame::Held(PktBuf::from_vec(frame.bytes(<[u8]>::to_vec)));
                    }
                }
                if pair.rx.publish() {
                    let _ = env.evtchn_notify(pair.port);
                }
            }
        }
        progressed
    }
}

#[cfg(test)]
mod tests;
