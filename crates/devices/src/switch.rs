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
//! A guest's frame goes from its TX page straight into the peer's RX page
//! when nothing could tell that from queueing it (`Switch::forward`).
//!
//! Whatever a guest posts is hostile until checked: a TX request must be
//! a device-readable buffer of `MIN_FRAME..=MAX_FRAME` bytes, an RX
//! buffer must be device-writable, on a page granted writable, and large
//! enough for the frame at hand. Anything else is completed failed and
//! counted in [`DriverStats::requests_rejected`]; the switch never
//! indexes a page by a guest-supplied length it has not bounded.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use mirage_testkit::wheel::TimerWheel;

use mirage_cstruct::PktBuf;
use mirage_hypervisor::event::Port;
use mirage_hypervisor::grant::SharedPage;
use mirage_hypervisor::{DomainEnv, Dur, Time};

use crate::netback::DriverStats;
use crate::netem::Netem;
use crate::netfront::{MAX_FRAME, MIN_FRAME};
use crate::transport::{map_cached, BackQueue, DataBuf, Gate, MapCache, NicQueues, Request};

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

/// One TX/RX queue pair of a port, with its event channel and the frames
/// already classified to it.
struct QueuePair {
    port: Port,
    tx: BackQueue,
    rx: BackQueue,
    /// Whether this pass takes from the TX queue.
    gate: Gate,
    out_queue: VecDeque<PktBuf>,
    /// An RX request the direct path could not use, for the delivery loop.
    held: Option<Result<Request, u32>>,
    /// The direct path filled an RX buffer this pass (for `rx_starved`).
    filled: bool,
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
    mac_table: HashMap<[u8; 6], usize>,
    pub(crate) taps: Vec<Tap>,
    /// The link conditioner; `None` is a perfect wire.
    pub(crate) netem: Option<Netem>,
    /// Frames the conditioner is holding, as `(ingress port, frame)` with
    /// `None` for a tap, by release time: ties leave in the order the
    /// conditioner saw them, keeping runs deterministic.
    delayed: TimerWheel<(Option<usize>, PktBuf)>,
    /// Guest frames of this pass for the conditioner; kept across passes.
    routed: Vec<(usize, PktBuf)>,
}

impl Switch {
    pub(crate) fn new(profile: NetProfile) -> Switch {
        Switch {
            profile,
            ports: Vec::new(),
            mac_table: HashMap::new(),
            taps: Vec::new(),
            netem: None,
            delayed: TimerWheel::new(),
            routed: Vec::new(),
        }
    }

    /// Plugs in a freshly attached NIC: one queue pair per event port.
    pub(crate) fn add_port(&mut self, pairs: NicQueues) {
        let queues = pairs
            .into_iter()
            .map(|(port, tx, rx)| QueuePair {
                port,
                tx,
                rx,
                gate: Gate::default(),
                out_queue: VecDeque::new(),
                held: None,
                filled: false,
            })
            .collect();
        self.ports.push(SwitchPort {
            queues,
            mapped: MapCache::new(),
            macs: 0,
            rx_starved: false,
        });
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

    /// Route `frame` from port `src` (`None`: a tap — no MAC learning, no
    /// flood self-exclusion) to its destination queue(s). Multi-port
    /// delivery (taps, floods) clones the `PktBuf` — a refcount bump,
    /// never a byte copy.
    fn route(&mut self, src: Option<usize>, frame: PktBuf, counts: &mut DriverStats) {
        if frame.len() < MIN_FRAME {
            return;
        }
        let dst: [u8; 6] = frame[0..6].try_into().expect("checked length");
        if let Some(port) = src {
            self.learn(&frame, port);
        }
        counts.frames_switched += 1;

        // Tap delivery by exact MAC or broadcast.
        let mut tap_hit = false;
        for tap in &self.taps {
            let mut inner = tap.inner.borrow_mut();
            if inner.mac == dst || dst == MAC_BROADCAST {
                inner.from_switch.push_back(frame.clone());
                tap_hit = true;
            }
        }

        match self.mac_table.get(&dst) {
            Some(&port) if dst != MAC_BROADCAST => {
                self.deliver(port, frame, counts);
            }
            _ => {
                if tap_hit && dst != MAC_BROADCAST {
                    return;
                }
                // Flood to every other port.
                for idx in 0..self.ports.len() {
                    if Some(idx) != src {
                        self.deliver(idx, frame.clone(), counts);
                    }
                }
            }
        }
    }

    /// Learns that `frame`'s source MAC lives behind `port`, new or moved
    /// from another port, while `port` has fewer than [`MACS_PER_PORT`].
    fn learn(&mut self, frame: &[u8], port: usize) {
        let mac: [u8; 6] = frame[6..12].try_into().expect("checked length");
        if self.mac_table.get(&mac) != Some(&port) && self.ports[port].macs < MACS_PER_PORT {
            self.ports[port].macs += 1;
            if let Some(old) = self.mac_table.insert(mac, port) {
                self.ports[old].macs -= 1;
            }
        }
    }

    /// The direct path: copies the frame in `range` of port `src`'s TX page
    /// `tx` into its destination's next RX buffer, or returns `false` to
    /// have it queued (DESIGN.md §13 lists when). An RX request taken and
    /// found wanting is held for the delivery loop. Only the copy runs
    /// under `tx`'s borrow, as an RX request may name `tx` too.
    fn forward(
        &mut self,
        env: &mut DomainEnv<'_>,
        src: usize,
        tx: &SharedPage,
        range: std::ops::Range<usize>,
        counts: &mut DriverStats,
    ) -> bool {
        if self.netem.is_some() {
            return false;
        }
        let dest = tx.read(|b| {
            let frame = &b[range.clone()];
            self.learn(frame, src);
            let dst: [u8; 6] = frame[..6].try_into().expect("checked length");
            let unicast = dst != MAC_BROADCAST && !self.taps.iter().any(|t| t.mac() == dst);
            let to = *self.mac_table.get(&dst).filter(|_| unicast)?;
            Some((to, crate::rss::rx_queue(frame, self.ports[to].queues.len())))
        });
        let Some((to, q)) = dest else {
            return false;
        };
        let port = &mut self.ports[to];
        let pair = &mut port.queues[q];
        let idle = pair.out_queue.is_empty() && pair.held.is_none();
        let Some(taken) = idle.then(|| pair.rx.take(env)).flatten() else {
            return false;
        };
        let len = range.len();
        let rx = match &taken {
            Ok(req) if req.data.device_writes && req.data.len as usize >= len => port
                .mapped
                .get(&req.data.gref)
                .filter(|(rx, writable)| *writable && !rx.same_page(tx)),
            _ => None,
        };
        let (Some((rx, _)), Ok(req)) = (rx, &taken) else {
            pair.held = Some(taken);
            return false;
        };
        tx.read(|b| rx.write(|r| r[req.data.range(len)].copy_from_slice(&b[range])));
        pair.rx.complete(env, req.token, len as u32, true);
        pair.filled = true;
        counts.frames_switched += 1;
        true
    }

    /// Queues `frame` at the pair of port `idx` its flow hashes to,
    /// tail-dropping when that output queue is full.
    fn deliver(&mut self, idx: usize, frame: PktBuf, counts: &mut DriverStats) {
        let port = &mut self.ports[idx];
        let pair = crate::rss::rx_queue(&frame, port.queues.len());
        let queue = &mut port.queues[pair].out_queue;
        if queue.len() >= OUT_QUEUE_CAP {
            if port.rx_starved {
                counts.frames_dropped_no_rx_buffer += 1;
            } else {
                counts.frames_dropped_congestion += 1;
            }
            return;
        }
        queue.push_back(frame);
    }

    /// Offer a frame to the link conditioner (if any) before switching it.
    /// Conditioned frames may be dropped, duplicated, corrupted or held in
    /// the delay queue until their release time. No port could ever
    /// receive a frame over [`MAX_FRAME`], so those stop here.
    fn offer(&mut self, now: Time, src: Option<usize>, frame: PktBuf, counts: &mut DriverStats) {
        if frame.len() > MAX_FRAME {
            counts.frames_dropped_oversize += 1;
            return;
        }
        let outs = match self.netem.as_mut() {
            None => {
                self.route(src, frame, counts);
                return;
            }
            Some(nm) => nm.apply(now, frame),
        };
        if outs.is_empty() {
            counts.frames_dropped_netem += 1;
            return;
        }
        for (release_at, frame) in outs {
            if release_at <= now {
                self.route(src, frame, counts);
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
            self.route(src, frame, counts);
        }
        // Ingest frames from guests. On a multi-vCPU driver domain each
        // NIC's wire serialisation is charged on its own lane (a
        // multi-queue switch port), so two saturated ports don't
        // serialise behind one core; a 1-vCPU dom0 behaves as before.
        let entry_lane = env.current_vcpu();
        for idx in 0..self.ports.len() {
            let lane = idx % env.vcpus();
            env.on_vcpu(lane);
            for q in 0..self.ports[idx].queues.len() {
                let pair = &mut self.ports[idx].queues[q];
                let fired = pair.gate.open(env, pair.port);
                while let Some(taken) = fired
                    .then(|| self.ports[idx].queues[q].tx.take(env))
                    .flatten()
                {
                    progressed = true;
                    let sendable = |d: &DataBuf| {
                        !d.device_writes && (MIN_FRAME..=MAX_FRAME).contains(&(d.len as usize))
                    };
                    let port = &mut self.ports[idx];
                    let (req, page) = match admit(env, &mut port.mapped, taken, false, sendable) {
                        Ok(admitted) => admitted,
                        Err(token) => {
                            port.queues[q].tx.complete(env, token, 0, false);
                            counts.requests_rejected += 1;
                            continue;
                        }
                    };
                    // Wire serialisation time for this NIC.
                    let len = req.data.len as usize;
                    env.consume(self.profile.wire_time(len));
                    // RX work is charged where the delivery loop is.
                    env.on_vcpu(entry_lane);
                    let direct = self.forward(env, idx, &page, req.data.range(len), counts);
                    env.on_vcpu(lane);
                    if !direct {
                        // Reading the granted page models the NIC's DMA;
                        // once off the wire the frame travels through the
                        // switch by reference.
                        let frame =
                            PktBuf::from_vec(page.read(|b| b[req.data.range(len)].to_vec()));
                        // Only a conditioner reads the clock, after ingest.
                        match self.netem {
                            Some(_) => self.routed.push((idx, frame)),
                            None => self.route(Some(idx), frame, counts),
                        }
                    }
                    let pair = &mut self.ports[idx].queues[q];
                    pair.tx.complete(env, req.token, 0, true);
                }
                let pair = &mut self.ports[idx].queues[q];
                if pair.tx.publish() {
                    let _ = env.evtchn_notify(pair.port);
                }
            }
        }
        env.on_vcpu(entry_lane);
        let mut routed = std::mem::take(&mut self.routed);
        for (src, frame) in routed.drain(..) {
            let now = env.now();
            self.offer(now, Some(src), frame, counts);
        }
        self.routed = routed;
        // Ingest frames from taps.
        for t in 0..self.taps.len() {
            loop {
                let frame = self.taps[t].inner.borrow_mut().to_switch.pop_front();
                let Some(frame) = frame else { break };
                env.consume(self.profile.wire_time(frame.len()));
                let now = env.now();
                self.offer(now, None, frame, counts);
                progressed = true;
            }
        }
        // Deliver queued frames into posted RX buffers.
        for SwitchPort {
            queues,
            mapped,
            rx_starved,
            ..
        } in &mut self.ports
        {
            for pair in queues {
                *rx_starved &= !std::mem::take(&mut pair.filled);
                while let Some(frame) = pair.out_queue.front() {
                    let Some(taken) = pair.held.take().or_else(|| pair.rx.take(env)) else {
                        *rx_starved = true;
                        break;
                    };
                    *rx_starved = false;
                    progressed = true;
                    let flen = frame.len();
                    let fits = |d: &DataBuf| d.device_writes && d.len as usize >= flen;
                    let (req, page) = match admit(env, mapped, taken, true, fits) {
                        Ok(admitted) => admitted,
                        Err(token) => {
                            // Not a buffer this frame can go in: hand it
                            // back empty and keep the frame queued.
                            pair.rx.complete(env, token, 0, false);
                            counts.requests_rejected += 1;
                            continue;
                        }
                    };
                    let frame = pair.out_queue.pop_front().expect("peeked");
                    page.write(|b| b[req.data.range(flen)].copy_from_slice(&frame));
                    pair.rx.complete(env, req.token, flen as u32, true);
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
