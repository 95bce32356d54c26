//! Which connections come to exist: listeners and their backlog, the
//! stateless SYN-cookie fallback (DESIGN.md §9), and the ISN and
//! ephemeral-port counters outbound connects draw from.

use std::collections::hash_map::Entry;
use std::net::Ipv4Addr;
use std::sync::Arc;

use mirage_cstruct::PktBuf;
use mirage_devices::rss;
use mirage_hypervisor::Time;
use mirage_runtime::channel::{self, Receiver};

use super::conns::Conns;
use super::{Listeners, NetError, StackConfig, StackStats, TcpStream};
use crate::tcp::{self, Connection, Flags, SegmentOut, TcpConfig, TcpSegment};

/// MSS classes a SYN cookie can encode in its two low bits — everything
/// else the original SYN carried (window scale included) is forgotten, the
/// classic stateless-handshake trade-off.
const COOKIE_MSS_TABLE: [u16; 4] = [536, 1460, 4096, 8960];

/// First port of the ephemeral range.
const EPHEMERAL_BASE: u16 = 49152;

/// The SYN-cookie MAC over the connection quad: a splitmix64 finalizer,
/// cheap and deterministic. The two low bits are reserved for the MSS
/// class, so validation compares the upper 30.
fn cookie_hash(secret: u64, src: Ipv4Addr, src_port: u16, dst_port: u16) -> u32 {
    let quad = (u64::from(u32::from_be_bytes(src.octets())) << 32)
        | (u64::from(src_port) << 16)
        | u64::from(dst_port);
    let mut x = (secret ^ quad).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) as u32
}

/// The RST for a segment no connection or listener owns. It takes its
/// sequence number from the segment's ACK field, zero for a bare SYN.
fn rst_for(seg: &TcpSegment) -> SegmentOut {
    SegmentOut {
        seq: if seg.flags.syn && !seg.flags.ack {
            0
        } else {
            seg.ack
        },
        ack: seg.seq.wrapping_add(1),
        flags: Flags {
            rst: true,
            ack: true,
            ..Flags::default()
        },
        window: 0,
        mss: None,
        wscale: None,
        sack_permitted: false,
        sack: None,
        payload: PktBuf::empty(),
    }
}

pub(super) struct Admission {
    listeners: Listeners,
    /// Cap on half-open listener-spawned connections; beyond it SYNs are
    /// answered with cookies.
    backlog: usize,
    /// One shared config for every connection on this interface.
    tcp_cfg: Arc<TcpConfig>,
    /// Keyed into the SYN-cookie MAC. Fixed for determinism of the
    /// simulation; a real deployment would draw it per boot.
    cookie_secret: u64,
    iss: u32,
    next_port: u16,
    /// This worker's index and the worker count: it owns exactly the
    /// flows whose [`rss::queue_of`] is its index.
    queue: (usize, usize),
    /// `syn_cookies_sent`/`syn_cookies_accepted`; the rest stays zero
    /// here (the connection table keeps those).
    stats: StackStats,
}

impl Admission {
    pub(super) fn new(cfg: &StackConfig, listeners: Listeners, queue: (usize, usize)) -> Admission {
        Admission {
            listeners,
            backlog: cfg.listen_backlog,
            tcp_cfg: Arc::new(cfg.tcp.clone()),
            cookie_secret: 0x6D69_7261_6765_2D63,
            // Per-worker ISN base: distinct streams of initial sequence
            // numbers without any cross-core coordination.
            iss: 10_000 + queue.0 as u32 * 7919,
            next_port: EPHEMERAL_BASE,
            queue,
            stats: StackStats::default(),
        }
    }

    /// The SYN-cookie counters.
    pub(super) fn stats(&self) -> StackStats {
        self.stats
    }

    /// Opens a listener on `port`; its accept queue is the result.
    pub(super) fn listen(&mut self, port: u16) -> Result<Receiver<TcpStream>, NetError> {
        match self.listeners.lock().entry(port) {
            Entry::Vacant(e) => {
                let (tx, rx) = channel::channel();
                e.insert(tx);
                Ok(rx)
            }
            Entry::Occupied(_) => Err(NetError::PortInUse),
        }
    }

    fn next_iss(&mut self) -> u32 {
        self.iss = self.iss.wrapping_add(64_000);
        self.iss
    }

    /// Starts an outbound connection: the local port it got, its state
    /// machine and the SYN to send. `None` if the ephemeral range is
    /// exhausted.
    pub(super) fn connect(
        &mut self,
        dst: Ipv4Addr,
        dst_port: u16,
        conns: &Conns,
        now: Time,
    ) -> Option<(u16, Connection, tcp::Output)> {
        let local_port = self.pick_local_port(dst, dst_port, conns)?;
        let iss = self.next_iss();
        let (conn, syn) = Connection::connect(Arc::clone(&self.tcp_cfg), iss, now);
        Some((local_port, conn, syn))
    }

    /// Picks an ephemeral port whose reply frames the NIC delivers to this
    /// worker's queue and whose quad is free. Expected `workers` probes per
    /// connect; `None` only if the whole ephemeral range is exhausted.
    fn pick_local_port(&mut self, dst: Ipv4Addr, dst_port: u16, conns: &Conns) -> Option<u16> {
        let (worker, workers) = self.queue;
        for _ in EPHEMERAL_BASE..=u16::MAX {
            let cand = self.next_port;
            self.next_port = cand.checked_add(1).unwrap_or(EPHEMERAL_BASE);
            if rss::queue_of(dst.octets(), dst_port, cand, workers) == worker
                && conns.lookup(&(dst, dst_port, cand)).is_none()
            {
                return Some(cand);
            }
        }
        None
    }

    /// Decides what a segment from `src` that matched no connection
    /// becomes, `half_open` being the backlog's current occupancy. `Ok` is
    /// a new connection: SYN-received for a SYN within a listener's
    /// backlog, established for the ACK completing a SYN-cookie handshake.
    /// `Err` keeps no state and carries the answer to send, if any: a RST
    /// or a cookie SYN+ACK (a stray RST gets none).
    pub(super) fn admit(
        &mut self,
        src: Ipv4Addr,
        seg: &TcpSegment,
        half_open: usize,
    ) -> Result<Connection, Option<SegmentOut>> {
        // A new connection must be a SYN to a listener, or an ACK
        // returning a SYN cookie we handed out statelessly.
        if !seg.flags.syn || seg.flags.ack {
            let stray = (!seg.flags.rst).then(|| rst_for(seg));
            return self.try_accept_cookie(src, seg).ok_or(stray);
        }
        if !self.listeners.lock().contains_key(&seg.dst_port) {
            return Err(Some(rst_for(seg)));
        }
        if half_open >= self.backlog {
            // Backlog full: answer statelessly. The ISN is a MAC over the
            // quad; state is created only if a matching ACK ever returns.
            self.stats.syn_cookies_sent += 1;
            let peer_mss = seg.mss.map_or(536, usize::from).min(tcp::MSS);
            let idx = COOKIE_MSS_TABLE
                .iter()
                .rposition(|&m| usize::from(m) <= peer_mss)
                .unwrap_or(0);
            let isn = (cookie_hash(self.cookie_secret, src, seg.src_port, seg.dst_port) & !0x3)
                | idx as u32;
            return Err(Some(SegmentOut {
                seq: isn,
                ack: seg.seq.wrapping_add(1),
                flags: Flags {
                    syn: true,
                    ack: true,
                    ..Flags::default()
                },
                window: self.tcp_cfg.recv_buf.min(u16::MAX as usize) as u16,
                mss: Some(COOKIE_MSS_TABLE[idx]),
                wscale: None,
                sack_permitted: false,
                sack: None,
                payload: PktBuf::empty(),
            }));
        }
        let iss = self.next_iss();
        Ok(Connection::listen(Arc::clone(&self.tcp_cfg), iss))
    }

    /// Checks whether a stray segment is the ACK completing a stateless
    /// SYN-cookie handshake; if so, rebuilds the connection it stands for.
    fn try_accept_cookie(&mut self, src: Ipv4Addr, seg: &TcpSegment) -> Option<Connection> {
        if !seg.flags.ack || seg.flags.syn || seg.flags.rst {
            return None;
        }
        if !self.listeners.lock().contains_key(&seg.dst_port) {
            return None;
        }
        let isn = seg.ack.wrapping_sub(1);
        let expect = cookie_hash(self.cookie_secret, src, seg.src_port, seg.dst_port);
        if (isn & !0x3) != (expect & !0x3) {
            return None;
        }
        let mss = usize::from(COOKIE_MSS_TABLE[(isn & 0x3) as usize]);
        self.stats.syn_cookies_accepted += 1;
        let cfg = Arc::clone(&self.tcp_cfg);
        Some(Connection::from_syn_cookie(
            cfg, isn, seg.seq, mss, seg.window,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Mac;
    use crate::stack::egress::Egress;
    use crate::stack::Shared;
    use mirage_runtime::Runtime;

    /// A connect's reply reaches the worker that sent the SYN: the switch
    /// delivers the peer's SYN+ACK, as the peer's own egress writes it,
    /// into the queue of the worker that picked the local port.
    #[test]
    fn every_picked_port_brings_its_reply_to_the_picking_worker() {
        let (ours, peer) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let cfg = StackConfig::static_ip(ours);
        let syn_ack = SegmentOut {
            seq: 1,
            ack: 1,
            flags: Flags {
                syn: true,
                ack: true,
                ..Flags::default()
            },
            window: 0xFFFF,
            mss: None,
            wscale: None,
            sack_permitted: false,
            sack: None,
            payload: PktBuf::empty(),
        };
        for workers in [2usize, 4, 8] {
            for worker in 0..workers {
                let shared = Shared::new(Some(ours));
                let mut admission =
                    Admission::new(&cfg, shared.listeners.clone(), (worker, workers));
                let conns = Conns::new(channel::channel().0, shared.listeners);
                let (tx, mut wire) = channel::channel();
                let peer_shared = Shared::new(Some(peer));
                let mut egress = Egress::new(Runtime::new(), Mac::local(2), tx, &cfg, &peer_shared);
                egress.learn(ours, Mac::local(1));
                for _ in 0..32 {
                    let port = admission
                        .pick_local_port(peer, 80, &conns)
                        .expect("ports left");
                    egress.tcp(80, (ours, port), &syn_ack);
                    egress.flush();
                    let reply = wire.try_recv().expect("the reply was sent");
                    assert_eq!(
                        rss::rx_queue(&reply, workers),
                        worker,
                        "port {port} picked by worker {worker} of {workers}"
                    );
                }
            }
        }
    }
}
