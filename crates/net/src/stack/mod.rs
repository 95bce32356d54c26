//! The asynchronous network interface — Mirage's `Net.Manager` analogue.
//!
//! One lightweight thread per interface owns every protocol state machine
//! (ARP, ICMP, UDP demux, all TCP connections, the DHCP client) and
//! multiplexes three inputs: frames from [`NetHandle`], commands from
//! socket handles, and virtual-time timers. "Chained iterators route
//! traffic directly to the relevant application thread, blocking on
//! intermediate system events if necessary" (paper §3.5).
//!
//! The thread is a [`Worker`] orchestrating components with disjoint write
//! scopes, as in [`crate::tcp`] (the table is DESIGN.md §3.2): `egress` is
//! the one way out, `conns` the connection table and its deadlines,
//! `admission` what may join it, `ingress` the way in and the datagram
//! endpoints; `socket` holds the application's handles and this file the
//! run loop.

mod admission;
mod config;
mod conns;
mod egress;
mod ingress;
mod socket;

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mirage_testkit::hash::DetHashMap;
use mirage_testkit::sync::Mutex;

use mirage_cstruct::PktBuf;
use mirage_devices::netfront::NetHandle;
use mirage_hypervisor::Time;
use mirage_runtime::channel::{Notify, Receiver, Sender};
use mirage_runtime::select::{select3, Either3};
use mirage_runtime::Runtime;

use crate::addr::Mac;
use crate::arp::ArpCache;
use crate::tcp::Flags;

use admission::Admission;
use conns::Conns;
use egress::Egress;
use ingress::Endpoints;
use socket::Cmd;

pub use config::{StackConfig, StackConfigBuilder};
pub use conns::idle_conn_bytes;
pub use socket::{Stack, TcpListener, TcpStream, UdpSocket};

/// Stack-wide accept-path counters: connection-table occupancy (current and
/// high-water) plus SYN-cookie fallback activity. The adversarial suite
/// asserts flood behaviour through these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StackStats {
    /// Current connection-table entries.
    pub conns: u64,
    /// Current half-open (SYN-received, listener-spawned) entries.
    pub half_open: u64,
    /// High-water mark of `conns`.
    pub max_conns: u64,
    /// High-water mark of `half_open`.
    pub max_half_open: u64,
    /// SYNs answered statelessly because the backlog was full.
    pub syn_cookies_sent: u64,
    /// Connections established from a validated returning cookie ACK.
    pub syn_cookies_accepted: u64,
    /// `Connection::poll` calls driven by the deadline queue. An idle
    /// connection arms no deadline, so a quiet tick polls nothing — the
    /// scale suite asserts this stays zero across 100k idle connections.
    pub timer_polls: u64,
}

impl std::iter::Sum for StackStats {
    fn sum<I: Iterator<Item = StackStats>>(iter: I) -> StackStats {
        iter.fold(StackStats::default(), |a, b| StackStats {
            conns: a.conns + b.conns,
            half_open: a.half_open + b.half_open,
            max_conns: a.max_conns + b.max_conns,
            max_half_open: a.max_half_open + b.max_half_open,
            syn_cookies_sent: a.syn_cookies_sent + b.syn_cookies_sent,
            syn_cookies_accepted: a.syn_cookies_accepted + b.syn_cookies_accepted,
            timer_polls: a.timer_polls + b.timer_polls,
        })
    }
}

/// Errors surfaced to socket users.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The connection attempt was refused or reset.
    Refused,
    /// The connection attempt timed out.
    TimedOut,
    /// The port is already bound.
    PortInUse,
    /// The stack task has shut down.
    StackGone,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            NetError::Refused => "connection refused",
            NetError::TimedOut => "connection timed out",
            NetError::PortInUse => "port already in use",
            NetError::StackGone => "network stack has shut down",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for NetError {}

/// Listener accept channels by port.
type Listeners = Arc<Mutex<DetHashMap<u16, Sender<TcpStream>>>>;

/// The interface address, read on every frame without a lock. `None` —
/// no lease yet — is a value no address encodes to, so `Some(0.0.0.0)`
/// stays distinct from it.
struct AddrCell(AtomicU64);

impl AddrCell {
    const NONE: u64 = u64::MAX;

    fn new(ip: Option<Ipv4Addr>) -> AddrCell {
        AddrCell(AtomicU64::new(
            ip.map_or(Self::NONE, |ip| u32::from(ip).into()),
        ))
    }

    fn get(&self) -> Option<Ipv4Addr> {
        u32::try_from(self.0.load(Ordering::Relaxed))
            .ok()
            .map(Ipv4Addr::from)
    }

    fn set(&self, ip: Ipv4Addr) {
        self.0.store(u32::from(ip).into(), Ordering::Relaxed);
    }
}

/// What the workers of one interface share, each behind a short
/// mutex or an atomic: every worker holds a clone.
#[derive(Clone)]
struct Shared {
    /// The interface address; `None` until the DHCP lease lands.
    ip: Arc<AddrCell>,
    /// Raised once `ip` is set.
    ready: Notify,
    /// ARP replies ride queue 0, so worker 0 learns neighbours (and
    /// releases the frames queued on them) on behalf of every core.
    arp: Arc<Mutex<ArpCache>>,
    /// Shared so a SYN landing on any worker can surface its
    /// accept to the socket owner.
    listeners: Listeners,
}

impl Shared {
    fn new(ip: Option<Ipv4Addr>) -> Shared {
        let ready = Notify::new();
        if ip.is_some() {
            ready.notify_all();
        }
        Shared {
            ip: Arc::new(AddrCell::new(ip)),
            ready,
            arp: Arc::new(Mutex::new(ArpCache::new())),
            listeners: Arc::new(Mutex::new(DetHashMap::default())),
        }
    }
}

/// Wire-level TCP tracing, enabled by setting `MIRAGE_TCP_TRACE` in the
/// environment: every segment emitted or accepted by any stack in the
/// process is printed to stderr. The chaos suite's debugging lever.
fn tcp_trace() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("MIRAGE_TCP_TRACE").is_some())
}

/// One line of the [`tcp_trace`] transcript: `route` names the interface,
/// the direction and the endpoints; the rest is the segment's header.
fn trace_segment(
    now: Time,
    route: std::fmt::Arguments<'_>,
    (seq, ack): (u32, u32),
    len: usize,
    window: u16,
    flags: Flags,
) {
    eprintln!(
        "[{}] {route} seq={seq} ack={ack} len={len} wnd={window} flags={flags:?}",
        now.as_nanos()
    );
}

/// One interface thread: the worker behind one RX queue.
struct Worker {
    rt: Runtime,
    rx: Receiver<PktBuf>,
    /// Frames moved out of `rx` in one go, not yet handled.
    frames: VecDeque<PktBuf>,
    ready: Notify,
    egress: Egress,
    conns: Conns,
    admission: Admission,
    endpoints: Endpoints,
    /// Worker 0 runs the control plane (DHCP) for every core.
    index: usize,
}

impl Worker {
    /// Worker `queue.0` of `queue.1` over `nh`; `cmd_tx` is the channel
    /// its streams will command it through.
    fn new(
        rt: Runtime,
        nh: NetHandle,
        cfg: &StackConfig,
        shared: Shared,
        queue: (usize, usize),
        cmd_tx: Sender<Cmd>,
    ) -> Worker {
        Worker {
            egress: Egress::new(rt.clone(), Mac(nh.mac), nh.tx, cfg, &shared),
            conns: Conns::new(cmd_tx, Arc::clone(&shared.listeners)),
            admission: Admission::new(cfg, shared.listeners, queue),
            endpoints: Endpoints::default(),
            rt,
            rx: nh.rx,
            frames: VecDeque::new(),
            ready: shared.ready,
            index: queue.0,
        }
    }

    async fn run(&mut self, mut cmd_rx: Receiver<Cmd>) {
        // Kick off DHCP if no static address — worker 0 only; the lease
        // lands in the shared ip cell for every core to read.
        if self.index == 0 && self.egress.ip().is_unspecified() {
            self.endpoints.start_dhcp(self.rt.now(), &mut self.egress);
        }
        let mut cmds = VecDeque::new();
        loop {
            let deadline = self.next_deadline().unwrap_or(Time::MAX);
            let sleep = self.rt.sleep_until(deadline);
            // What this iteration sent reaches the device in one hand-off.
            self.egress.flush();
            match select3(self.rx.recv(), cmd_rx.recv(), sleep).await {
                Either3::First(Ok(frame)) => self.on_frame(&frame),
                Either3::First(Err(_)) => break, // device gone
                Either3::Second(Ok(cmd)) => self.on_cmd(cmd),
                Either3::Second(Err(_)) => break, // all handles dropped
                Either3::Third(()) => {}
            }
            // Drain everything else that arrived in the same virtual
            // instant before flushing, so TX batching sees the whole burst
            // of writes rather than one segment train per write. Handling
            // a command or frame can queue a command (a dropped stream
            // closes itself), which joins the same drain.
            self.rx.drain_into(&mut self.frames);
            while let Some(frame) = self.frames.pop_front() {
                self.on_frame(&frame);
            }
            loop {
                cmd_rx.drain_into(&mut cmds);
                if cmds.is_empty() {
                    break;
                }
                for cmd in cmds.drain(..) {
                    self.on_cmd(cmd);
                }
            }
            let now = self.rt.now();
            self.conns.flush_tx(now, &mut self.egress);
            self.on_timers();
        }
    }

    /// The earliest pending deadline across every timer source: the
    /// first key of the connections' deadline queue, never a table scan.
    fn next_deadline(&self) -> Option<Time> {
        [
            self.conns.next_deadline(),
            self.egress.arp_deadline(),
            self.endpoints.ping_deadline(),
            self.endpoints.dhcp_deadline(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn on_timers(&mut self) {
        let now = self.rt.now();
        self.conns.on_timers(now, &mut self.egress);
        self.endpoints.expire_pings(now);
        self.egress.retry_arp(now);
        self.endpoints.poll_dhcp(now, &mut self.egress);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite audit: the per-idle-connection heap budget. 488 B today
    /// (see [`idle_conn_bytes`]); the assert leaves 24 B of headroom to
    /// 512 so a PR that bloats the TCB trips this test and has to argue
    /// for the growth explicitly.
    #[test]
    fn idle_conn_budget_stays_within_512() {
        let b = idle_conn_bytes();
        assert!(b <= 512, "idle connection budget regressed: {b} B > 512 B");
        assert!(b >= 256, "audit became vacuous ({b} B): did a field move out of ConnEntry?");
    }
}
