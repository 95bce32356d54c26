//! The socket layer: the handles applications hold, and the commands they
//! turn into for the interface thread.

use std::net::Ipv4Addr;
use std::sync::Arc;

use mirage_testkit::sync::Mutex;

use mirage_cstruct::{PktBuf, PktQueue};
use mirage_devices::netfront::NetHandle;
use mirage_hypervisor::Dur;
use mirage_runtime::channel::{self, Notify, Receiver, Sender};
use mirage_runtime::Runtime;

use super::conns::ConnEntry;
use super::{AddrCell, NetError, Shared, StackConfig, StackStats, Worker};
use crate::tcp;

pub(super) enum StreamEvent {
    Data(PktBuf),
    Eof,
    Closed,
}

/// Datagram delivered to a bound UDP socket: (source ip, source port, payload).
/// The payload is a view over the received frame's page — no copy.
pub(super) type UdpDelivery = (Ipv4Addr, u16, PktBuf);

pub(super) enum Cmd {
    UdpBind {
        port: u16,
        reply: Sender<Result<Receiver<UdpDelivery>, NetError>>,
    },
    UdpSend {
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: PktBuf,
    },
    TcpListen {
        port: u16,
        reply: Sender<Result<Receiver<TcpStream>, NetError>>,
    },
    TcpConnect {
        dst: Ipv4Addr,
        dst_port: u16,
        reply: Sender<Result<TcpStream, NetError>>,
    },
    TcpSend {
        id: u64,
        data: PktBuf,
    },
    TcpClose {
        id: u64,
    },
    TcpStats {
        id: u64,
        reply: Sender<Result<tcp::TcpStats, NetError>>,
    },
    StackStats {
        reply: Sender<StackStats>,
    },
    Ping {
        dst: Ipv4Addr,
        reply: Sender<Result<Dur, NetError>>,
    },
}

/// Sends the command `make` builds around a fresh reply channel and awaits
/// the answer; a stack that is gone at either step is
/// [`NetError::StackGone`].
async fn request<T>(cmd: &Sender<Cmd>, make: impl FnOnce(Sender<T>) -> Cmd) -> Result<T, NetError> {
    let (tx, mut rx) = channel::channel();
    cmd.send(make(tx)).map_err(|_| NetError::StackGone)?;
    rx.recv().await.map_err(|_| NetError::StackGone)
}

/// A bound UDP socket.
pub struct UdpSocket {
    port: u16,
    cmd: Sender<Cmd>,
    rx: Receiver<UdpDelivery>,
}

impl std::fmt::Debug for UdpSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UdpSocket(:{})", self.port)
    }
}

impl UdpSocket {
    /// The bound local port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Awaits the next datagram as `(source ip, source port, payload)`. The
    /// payload is a [`PktBuf`] view over the received frame — by reference
    /// all the way from the device ring.
    ///
    /// # Errors
    ///
    /// [`NetError::StackGone`] if the stack task has exited.
    pub async fn recv_from(&mut self) -> Result<(Ipv4Addr, u16, PktBuf), NetError> {
        self.rx.recv().await.map_err(|_| NetError::StackGone)
    }

    /// Sends a datagram. Accepts anything convertible to a [`PktBuf`] —
    /// an owned `Vec<u8>` or a received payload view are handed over
    /// without copying. A datagram too large for one frame is dropped.
    pub fn send_to(&self, dst: Ipv4Addr, dst_port: u16, payload: impl Into<PktBuf>) {
        let _ = self.cmd.send(Cmd::UdpSend {
            src_port: self.port,
            dst,
            dst_port,
            payload: payload.into(),
        });
    }
}

/// A listening TCP socket.
pub struct TcpListener {
    port: u16,
    rx: Receiver<TcpStream>,
}

impl std::fmt::Debug for TcpListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpListener(:{})", self.port)
    }
}

impl TcpListener {
    /// The listening port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Awaits the next established connection.
    ///
    /// # Errors
    ///
    /// [`NetError::StackGone`] if the stack task has exited.
    pub async fn accept(&mut self) -> Result<TcpStream, NetError> {
        self.rx.recv().await.map_err(|_| NetError::StackGone)
    }
}

/// An established TCP connection.
pub struct TcpStream {
    id: u64,
    /// Peer address.
    pub peer: (Ipv4Addr, u16),
    cmd: Sender<Cmd>,
    events: Receiver<StreamEvent>,
    /// Data that arrived while [`TcpStream::wait_closed`] was draining
    /// events, still as views; [`TcpStream::read`] hands it back first.
    late: PktQueue,
    eof: bool,
}

impl std::fmt::Debug for TcpStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpStream(#{} -> {}:{})", self.id, self.peer.0, self.peer.1)
    }
}

impl TcpStream {
    /// The application's end of connection `id`, fed by `events`.
    pub(super) fn new(
        id: u64,
        peer: (Ipv4Addr, u16),
        cmd: Sender<Cmd>,
        events: Receiver<StreamEvent>,
    ) -> TcpStream {
        TcpStream {
            id,
            peer,
            cmd,
            events,
            late: PktQueue::new(),
            eof: false,
        }
    }

    /// Queues bytes for transmission (buffered; the stack applies TCP flow
    /// and congestion control on the wire). Copies `data` once to take
    /// ownership — use [`TcpStream::write_buf`] to hand over an existing
    /// buffer by reference instead.
    pub fn write(&self, data: &[u8]) {
        self.write_buf(PktBuf::copy_from_slice(data));
    }

    /// Queues an owned buffer for transmission without copying: the stack,
    /// the retransmit queue and the wire frames all share it by reference.
    pub fn write_buf(&self, data: PktBuf) {
        let _ = self.cmd.send(Cmd::TcpSend { id: self.id, data });
    }

    /// Awaits the next chunk of received data; `None` at end-of-stream.
    /// The chunk is a [`PktBuf`] view over the received page — reading
    /// never copies payload bytes.
    pub async fn read(&mut self) -> Option<PktBuf> {
        if let Some(chunk) = self.late.pop() {
            return Some(chunk);
        }
        if self.eof {
            return None;
        }
        match self.events.recv().await {
            Ok(StreamEvent::Data(d)) => Some(d),
            Ok(StreamEvent::Eof) | Ok(StreamEvent::Closed) | Err(_) => {
                self.eof = true;
                None
            }
        }
    }

    /// Reads until end-of-stream.
    pub async fn read_to_end(&mut self) -> Vec<u8> {
        let mut acc = Vec::new();
        while let Some(chunk) = self.read().await {
            acc.extend_from_slice(&chunk);
        }
        acc
    }

    /// Initiates a graceful close (FIN after queued data).
    pub fn close(&self) {
        let _ = self.cmd.send(Cmd::TcpClose { id: self.id });
    }

    /// Point-in-time [`tcp::TcpStats`] for this connection — how many
    /// segments/bytes moved and whether the retransmit or persist
    /// machinery fired. Read before closing: a fully torn-down connection
    /// is garbage-collected by the stack and reports
    /// [`NetError::StackGone`].
    pub async fn stats(&self) -> Result<tcp::TcpStats, NetError> {
        let id = self.id;
        request(&self.cmd, |reply| Cmd::TcpStats { id, reply }).await?
    }

    /// Awaits full connection teardown (our FIN acknowledged and the state
    /// machine torn down). Servers call this before shutting the VM down so
    /// queued data is flushed — exiting a unikernel kills its connections,
    /// exactly as on real Xen.
    pub async fn wait_closed(&mut self) {
        loop {
            match self.events.recv().await {
                // Late data still counts as readable.
                Ok(StreamEvent::Data(d)) => self.late.push(d),
                Ok(StreamEvent::Eof) => {
                    self.eof = true;
                }
                Ok(StreamEvent::Closed) | Err(_) => {
                    self.eof = true;
                    return;
                }
            }
        }
    }
}

impl Drop for TcpStream {
    fn drop(&mut self) {
        self.close();
    }
}

/// Handle to a running network stack — one worker in the classic
/// configuration, or one per RX queue in SMP mode
/// ([`Stack::spawn_sharded`]).
#[derive(Clone)]
pub struct Stack {
    /// One command channel per worker; index = worker = RX queue.
    cmds: Vec<Sender<Cmd>>,
    ip: Arc<AddrCell>,
    ready: Notify,
    /// Round-robin cursor spreading `tcp_connect` across workers.
    connect_rr: Arc<Mutex<usize>>,
}

impl std::fmt::Debug for Stack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Stack({:?})", self.ip.get())
    }
}

impl Stack {
    /// Spawns the interface thread over `nh` and returns the handle.
    pub fn spawn(rt: &Runtime, nh: NetHandle, cfg: StackConfig) -> Stack {
        Stack::spawn_sharded(rt, vec![nh], cfg)
    }

    /// Spawns one pinned worker per RX queue handle: worker `v` runs on
    /// core `v` and owns exactly the flows the device delivers to queue
    /// `v`, each in its own connection table, so a flow's TCB is only ever
    /// touched by one core. Pair the handles with
    /// [`Backend::net_multiqueue`](mirage_devices::Backend::net_multiqueue):
    /// `mirage_devices::rss` decides a flow's queue, both for the frames
    /// the device delivers and for the ephemeral ports a worker picks. Control
    /// plane (ARP replies, DHCP, UDP, ping) rides queue 0 and is handled
    /// by worker 0; the ARP cache and listener map are the only shared
    /// state, behind short mutexes.
    ///
    /// # Panics
    ///
    /// Panics if `handles` is empty.
    pub fn spawn_sharded(rt: &Runtime, handles: Vec<NetHandle>, cfg: StackConfig) -> Stack {
        assert!(!handles.is_empty(), "a stack needs at least one RX queue");
        let workers = handles.len();
        let shared = Shared::new(cfg.ip);
        let mut cmds = Vec::with_capacity(workers);
        for (v, nh) in handles.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = channel::channel();
            cmds.push(cmd_tx.clone());
            let (rt2, cfg2, shared2) = (rt.clone(), cfg.clone(), shared.clone());
            rt.spawn_on(v % rt.cores(), async move {
                Worker::new(rt2, nh, &cfg2, shared2, (v, workers), cmd_tx)
                    .run(cmd_rx)
                    .await;
            });
        }
        Stack {
            cmds,
            ip: shared.ip,
            ready: shared.ready,
            connect_rr: Arc::new(Mutex::new(0)),
        }
    }

    /// The interface address, if configured/leased.
    pub fn local_ip(&self) -> Option<Ipv4Addr> {
        self.ip.get()
    }

    /// Awaits interface readiness (immediate for static config, lease
    /// acquisition for DHCP) and returns the address.
    pub async fn wait_ready(&self) -> Ipv4Addr {
        loop {
            if let Some(ip) = self.local_ip() {
                return ip;
            }
            self.ready.notified().await;
        }
    }

    /// Binds a UDP port.
    ///
    /// # Errors
    ///
    /// [`NetError::PortInUse`] or [`NetError::StackGone`].
    pub async fn udp_bind(&self, port: u16) -> Result<UdpSocket, NetError> {
        let cmd = &self.cmds[0];
        let rx = request(cmd, |reply| Cmd::UdpBind { port, reply }).await??;
        Ok(UdpSocket {
            port,
            cmd: cmd.clone(),
            rx,
        })
    }

    /// Listens for TCP connections on `port`.
    ///
    /// # Errors
    ///
    /// [`NetError::PortInUse`] or [`NetError::StackGone`].
    pub async fn tcp_listen(&self, port: u16) -> Result<TcpListener, NetError> {
        let rx = request(&self.cmds[0], |reply| Cmd::TcpListen { port, reply }).await??;
        Ok(TcpListener { port, rx })
    }

    /// Opens a TCP connection to `dst:dst_port`.
    ///
    /// # Errors
    ///
    /// [`NetError::Refused`], [`NetError::TimedOut`] or
    /// [`NetError::StackGone`].
    pub async fn tcp_connect(&self, dst: Ipv4Addr, dst_port: u16) -> Result<TcpStream, NetError> {
        let w = {
            let mut rr = self.connect_rr.lock();
            let w = *rr % self.cmds.len();
            *rr = (*rr + 1) % self.cmds.len();
            w
        };
        request(&self.cmds[w], |reply| Cmd::TcpConnect {
            dst,
            dst_port,
            reply,
        })
        .await?
    }

    /// Accept-path and connection-table counters.
    ///
    /// # Errors
    ///
    /// [`NetError::StackGone`].
    pub async fn stack_stats(&self) -> Result<StackStats, NetError> {
        Ok(self.stack_stats_per_core().await?.into_iter().sum())
    }

    /// Per-worker counters, indexed by worker (= RX queue = vCPU). The
    /// aggregate [`Stack::stack_stats`] sums these, so its high-water
    /// marks are sums of per-worker marks rather than a global snapshot.
    ///
    /// # Errors
    ///
    /// [`NetError::StackGone`].
    pub async fn stack_stats_per_core(&self) -> Result<Vec<StackStats>, NetError> {
        let mut out = Vec::with_capacity(self.cmds.len());
        for cmd in &self.cmds {
            out.push(request(cmd, |reply| Cmd::StackStats { reply }).await?);
        }
        Ok(out)
    }

    /// ICMP echo round-trip to `dst`.
    ///
    /// # Errors
    ///
    /// [`NetError::TimedOut`] (no reply within the ping timeout) or
    /// [`NetError::StackGone`].
    pub async fn ping(&self, dst: Ipv4Addr) -> Result<Dur, NetError> {
        request(&self.cmds[0], |reply| Cmd::Ping { dst, reply }).await?
    }
}

impl Worker {
    /// Carries out one command from a socket handle.
    pub(super) fn on_cmd(&mut self, cmd: Cmd) {
        let now = self.rt.now();
        match cmd {
            Cmd::UdpBind { port, reply } => {
                let _ = reply.send(self.endpoints.bind_udp(port));
            }
            Cmd::UdpSend {
                src_port,
                dst,
                dst_port,
                payload,
            } => self.egress.udp(src_port, dst, dst_port, &payload),
            Cmd::TcpListen { port, reply } => {
                let _ = reply.send(self.admission.listen(port));
            }
            Cmd::TcpConnect {
                dst,
                dst_port,
                reply,
            } => {
                let Some((local_port, conn, mut syn)) =
                    self.admission.connect(dst, dst_port, &self.conns, now)
                else {
                    let _ = reply.send(Err(NetError::PortInUse));
                    return;
                };
                let entry = ConnEntry::new(conn, (dst, dst_port), local_port, Some(reply));
                let id = self.conns.insert(entry);
                self.conns.apply(id, &mut syn, &mut self.egress);
            }
            Cmd::TcpSend { id, data } => self.conns.buffer(id, data),
            Cmd::TcpClose { id } => self.conns.close(id, now, &mut self.egress),
            Cmd::TcpStats { id, reply } => {
                let _ = reply.send(self.conns.tcp_stats(id).ok_or(NetError::StackGone));
            }
            Cmd::StackStats { reply } => {
                let stats = [self.conns.stats(), self.admission.stats()];
                let _ = reply.send(stats.into_iter().sum());
            }
            Cmd::Ping { dst, reply } => self.endpoints.ping(dst, reply, now, &mut self.egress),
        }
    }
}
