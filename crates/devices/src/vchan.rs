//! vchan — the fast on-host inter-VM byte transport (paper §3.5.1).
//!
//! "vchan is a fast shared memory interconnect through which data is
//! tracked via producer/consumer pointers … communicating VMs can exchange
//! data directly via shared memory without further intervention from the
//! hypervisor other than interrupt notifications. vchan is present in
//! upstream Linux 3.3.0 onwards, enabling easy interaction between Mirage
//! unikernels and Linux VMs."
//!
//! A vchan connection is two [`ByteRing`]s (one per direction) in pages the
//! *server* allocates and grants, plus one event channel. The handshake
//! runs over xenstore: the client announces its domid; the server grants
//! the rings to it and publishes grant references and a port.

use std::collections::VecDeque;

use mirage_hypervisor::event::Port;
use mirage_hypervisor::grant::GrantRef;
use mirage_hypervisor::{DomainEnv, DomainId};
use mirage_ring::ByteRing;
use mirage_runtime::channel::{self, Receiver, Sender};
use mirage_runtime::{DeviceService, Runtime};

use crate::xenstore::Xenstore;

/// Pages per direction ("multiple contiguous pages … to ensure it has a
/// reasonable buffer").
pub const VCHAN_PAGES: usize = 4;

/// Stack-facing byte-stream handle for one vchan endpoint.
pub struct VchanHandle {
    /// Bytes to transmit.
    pub tx: Sender<Vec<u8>>,
    /// Bytes received.
    pub rx: Receiver<Vec<u8>>,
}

impl std::fmt::Debug for VchanHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("VchanHandle")
    }
}

enum Role {
    Server,
    Client,
}

enum VchanState {
    Init,
    Waiting,
    Connected,
}

/// One endpoint of a vchan connection ([`DeviceService`]).
pub struct VchanEndpoint {
    xs: Xenstore,
    name: String,
    role: Role,
    state: VchanState,
    registered_watch: bool,
    peer: Option<DomainId>,
    port: Option<Port>,
    tx_ring: Option<ByteRing>,
    rx_ring: Option<ByteRing>,
    from_stack: Receiver<Vec<u8>>,
    to_stack: Sender<Vec<u8>>,
    tx_buf: VecDeque<u8>,
}

impl VchanEndpoint {
    /// Creates the server endpoint (allocates the shared rings).
    pub fn server(xs: Xenstore, name: impl Into<String>) -> (VchanEndpoint, VchanHandle) {
        Self::build(xs, name, Role::Server)
    }

    /// Creates the client endpoint (maps the server's rings).
    pub fn client(xs: Xenstore, name: impl Into<String>) -> (VchanEndpoint, VchanHandle) {
        Self::build(xs, name, Role::Client)
    }

    fn build(
        xs: Xenstore,
        name: impl Into<String>,
        role: Role,
    ) -> (VchanEndpoint, VchanHandle) {
        let (tx_in, tx_out) = channel::channel();
        let (rx_in, rx_out) = channel::channel();
        (
            VchanEndpoint {
                xs,
                name: name.into(),
                role,
                state: VchanState::Init,
                registered_watch: false,
                peer: None,
                port: None,
                tx_ring: None,
                rx_ring: None,
                from_stack: tx_out,
                to_stack: rx_in,
                tx_buf: VecDeque::new(),
            },
            VchanHandle {
                tx: tx_in,
                rx: rx_out,
            },
        )
    }

    fn base(&self) -> String {
        format!("vchan/{}", self.name)
    }

    fn step_init(&mut self, env: &mut DomainEnv<'_>) -> bool {
        if !self.registered_watch {
            self.xs.register_watcher(env.domid());
            self.registered_watch = true;
        }
        let base = self.base();
        match self.role {
            Role::Client => {
                self.xs.write(
                    env,
                    &format!("{base}/client-domid"),
                    &env.domid().0.to_string(),
                );
                self.state = VchanState::Waiting;
                true
            }
            Role::Server => {
                let Some(client) = self
                    .xs
                    .read(env, &format!("{base}/client-domid"))
                    .and_then(|s| s.parse().ok())
                    .map(DomainId)
                else {
                    return false; // client announcement will wake us
                };
                self.peer = Some(client);
                // Server-to-client and client-to-server rings.
                let (s2c, s2c_region) = ByteRing::allocate(VCHAN_PAGES);
                let (c2s, c2s_region) = ByteRing::allocate(VCHAN_PAGES);
                let g1 = env.grant(client, s2c_region, true);
                let g2 = env.grant(client, c2s_region, true);
                self.tx_ring = Some(s2c);
                self.rx_ring = Some(c2s);
                let port = env.evtchn_alloc_unbound(client);
                self.xs
                    .write(env, &format!("{base}/s2c-ring"), &g1.0.to_string());
                self.xs
                    .write(env, &format!("{base}/c2s-ring"), &g2.0.to_string());
                self.xs
                    .write(env, &format!("{base}/event-port"), &port.0.to_string());
                self.xs.write(
                    env,
                    &format!("{base}/server-domid"),
                    &env.domid().0.to_string(),
                );
                // Bind completes when the client binds; remember our port.
                self.port = Some(port);
                self.state = VchanState::Waiting;
                true
            }
        }
    }

    fn step_waiting(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let base = self.base();
        match self.role {
            Role::Server => {
                // Wait for the client to flip state to connected.
                if self.xs.read(env, &format!("{base}/state")).as_deref() == Some("connected") {
                    self.state = VchanState::Connected;
                    env.observe(&format!("vchan-connected:{}", self.name));
                    true
                } else {
                    false
                }
            }
            Role::Client => {
                let (Some(server), Some(s2c), Some(c2s), Some(port)) = (
                    self.xs
                        .read(env, &format!("{base}/server-domid"))
                        .and_then(|s| s.parse::<u32>().ok()),
                    self.xs
                        .read(env, &format!("{base}/s2c-ring"))
                        .and_then(|s| s.parse::<u32>().ok()),
                    self.xs
                        .read(env, &format!("{base}/c2s-ring"))
                        .and_then(|s| s.parse::<u32>().ok()),
                    self.xs
                        .read(env, &format!("{base}/event-port"))
                        .and_then(|s| s.parse::<u32>().ok()),
                ) else {
                    return false;
                };
                let server = DomainId(server);
                self.peer = Some(server);
                // The port is the server's word: one it did not allocate
                // for us leaves the channel unconnected, with nothing mapped.
                let Ok(local) = env.evtchn_bind(server, Port(port)) else {
                    return false;
                };
                // Ring grants it never issued: close the port we bound, so
                // the server's notifications no longer wake us.
                let pages = env.grant_map(GrantRef(s2c), true).and_then(|s2c_page| {
                    let c2s_page = env.grant_map(GrantRef(c2s), true)?;
                    Ok((s2c_page, c2s_page))
                });
                let Ok((s2c_page, c2s_page)) = pages else {
                    let _ = env.evtchn_close(local);
                    return false;
                };
                // Client transmits on c2s, receives on s2c.
                self.tx_ring = Some(ByteRing::attach(c2s_page));
                self.rx_ring = Some(ByteRing::attach(s2c_page));
                self.port = Some(local);
                self.xs.write(env, &format!("{base}/state"), "connected");
                env.evtchn_notify(local).expect("bound");
                env.observe(&format!("vchan-connected:{}", self.name));
                self.state = VchanState::Connected;
                true
            }
        }
    }

    fn step_connected(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let mut progressed = false;
        let port = self.port.expect("connected");
        let _ = env.evtchn_consume(port);

        // Receive.
        if let Some(rx) = &self.rx_ring {
            let mut buf = vec![0u8; 4096];
            loop {
                let (n, notify_writer) = rx.read(&mut buf);
                if notify_writer {
                    let _ = env.evtchn_notify(port);
                }
                if n == 0 {
                    break;
                }
                let _ = self.to_stack.send(buf[..n].to_vec());
                progressed = true;
            }
        }

        // Transmit.
        while let Some(chunk) = self.from_stack.try_recv() {
            self.tx_buf.extend(chunk);
        }
        if let Some(tx) = &self.tx_ring {
            while !self.tx_buf.is_empty() {
                let (head, _) = self.tx_buf.as_slices();
                let (n, notify_reader) = tx.write(head);
                if notify_reader {
                    let _ = env.evtchn_notify(port);
                }
                if n == 0 {
                    break;
                }
                self.tx_buf.drain(..n);
                progressed = true;
            }
        }
        // Announce blocking intentions; re-poll if data/space raced in.
        if let Some(rx) = &self.rx_ring {
            progressed |= rx.reader_about_to_block();
        }
        if !self.tx_buf.is_empty() {
            if let Some(tx) = &self.tx_ring {
                progressed |= tx.writer_about_to_block();
            }
        }
        progressed
    }
}

impl DeviceService for VchanEndpoint {
    fn service(&mut self, env: &mut DomainEnv<'_>, _rt: &Runtime) -> bool {
        match self.state {
            VchanState::Init => self.step_init(env),
            VchanState::Waiting => {
                let p = self.step_waiting(env);
                if matches!(self.state, VchanState::Connected) {
                    self.step_connected(env) || p
                } else {
                    p
                }
            }
            VchanState::Connected => self.step_connected(env),
        }
    }
}

impl std::fmt::Debug for VchanEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VchanEndpoint({})", self.name)
    }
}
