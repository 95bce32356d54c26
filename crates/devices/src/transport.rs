//! The device transport: the one signature every device rides (§3.4).
//!
//! "Mirage block devices share the same Ring abstraction as network
//! devices, using the same I/O pages" — so the NIC and block frontends
//! ([`crate::netfront`], [`crate::blk`]) and the driver domain's switch and
//! block service ([`crate::switch`], [`crate::blkback`]) are each written
//! once, against the two halves declared here, and the ring ABI is swapped
//! underneath (the functor discipline of Radanne et al.):
//!
//! * [`FrontTransport`], the guest half — `room`, `post`, `publish`,
//!   `reap`, `arm` — over a Xen [`FrontRing`](mirage_ring::FrontRing)
//!   ([`RingFront`]) or a virtio [`SplitQueue`](crate::virtio::SplitQueue)
//!   ([`VirtqFront`]);
//! * [`BackTransport`], the dom0 half — `take`, `complete`, `publish`,
//!   `arm` — over a [`BackRing`](mirage_ring::BackRing) ([`RingBack`]) or
//!   a [`DeviceQueue`](crate::virtio::DeviceQueue) ([`VirtqBack`]).
//!
//! A pass costs one crossing per queue, not one per request: `post` and
//! `complete` stage, and `publish` — called once per queue per pass —
//! makes the burst visible and returns the one doorbell decision.
//!
//! A request is an optional small header plus one [`DataBuf`], a window
//! of a granted page. How that is laid out in shared memory is the
//! impl's business ([`ring`], [`virtq`]): the Xen ring packs it into one
//! slot and answers in place; the virtqueue publishes a descriptor chain
//! — `[data]`, or the virtio-blk shape `[header][data][status]` with
//! header and status byte on a page of the transport's own.
//!
//! The xenstore handshake is written once, here, for both ABIs. All an
//! impl knows of it is how *one* queue is granted and advertised under a
//! key prefix ([`FrontTransport::grant`]) and read and mapped
//! ([`BackTransport::map`]). The device frame around that is shared: a
//! NIC has a TX/RX pair under `q<q>/{tx,rx}-` and an event channel bound
//! to vCPU `q mod vcpus` per stack queue, a disk one queue and one
//! channel.
//!
//! A device pass reads only the queues whose channel fired ([`Gate`]):
//! after an `arm` that saw no race, the peer can only add work together
//! with a notification.
//!
//! The dom0 half treats everything it reads as hostile: a request whose
//! shape is wrong or whose buffer does not lie inside its page comes out
//! of [`BackTransport::take`] as `Err(token)`, to be completed failed.

use std::collections::HashMap;

use mirage_hypervisor::event::Port;
use mirage_hypervisor::grant::{GrantRef, SharedPage};
use mirage_hypervisor::{DomainEnv, DomainId};
use mirage_ring::Slot;

use crate::driver::Backend;
use crate::xenstore::Xenstore;

mod ring;
mod virtq;

pub(crate) use ring::{RingBack, RingFront};
pub(crate) use virtq::{VirtqBack, VirtqFront};

/// Longest request header either ABI carries (what a Xen slot has room
/// for beside the buffer description).
pub(crate) const HEADER_MAX: usize = mirage_ring::desc::SLOT_PAYLOAD - ring::REQ_FIXED;

/// One data buffer of a request: `len` bytes at `off` in the page granted
/// as `gref`, written by the device (`device_writes`) or only read by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DataBuf {
    pub gref: u32,
    pub off: usize,
    pub len: u32,
    pub device_writes: bool,
}

impl DataBuf {
    /// The first `len` bytes of a granted page — what the frontends post.
    pub(crate) fn page(gref: GrantRef, len: usize, device_writes: bool) -> DataBuf {
        DataBuf {
            gref: gref.0,
            off: 0,
            len: len as u32,
            device_writes,
        }
    }

    /// Where the buffer's first `len` bytes lie within its page.
    pub(crate) fn range(&self, len: usize) -> std::ops::Range<usize> {
        self.off..self.off + len
    }
}

/// What a frontend has out with the backend, keyed by the token
/// [`FrontTransport::post`] returned: the one place a posted request is
/// remembered until it is reaped. A pool's worth at most (tens), where a
/// scan beats hashing on every request.
pub(crate) struct Outstanding<T>(Vec<(u32, T)>);

impl<T> Default for Outstanding<T> {
    fn default() -> Self {
        Outstanding(Vec::new())
    }
}

impl<T> Outstanding<T> {
    pub(crate) fn insert(&mut self, token: u32, entry: T) {
        self.0.push((token, entry));
    }

    pub(crate) fn remove(&mut self, token: u32) -> Option<T> {
        let at = self.0.iter().position(|(t, _)| *t == token)?;
        Some(self.0.swap_remove(at).1)
    }
}

/// What the guest reaps: the token [`FrontTransport::post`] returned, the
/// bytes the device wrote, and whether it executed the request. A
/// header-less virtqueue chain has no status byte, so it always reads ok.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Completion {
    pub token: u32,
    pub len: u32,
    pub ok: bool,
}

/// What dom0 takes: a request whose buffer is known to lie inside one
/// page. `header` — at most [`HEADER_MAX`] bytes, held inline — is empty
/// for header-less requests (network frames).
#[derive(Debug)]
pub(crate) struct Request {
    pub token: u32,
    pub header: Slot,
    pub data: DataBuf,
}

/// A device's xenstore directory, `device/<kind>/<name>`.
pub(crate) struct Dir {
    pub xs: Xenstore,
    pub base: String,
}

impl Dir {
    pub(crate) fn write(&self, env: &mut DomainEnv<'_>, leaf: &str, value: impl ToString) {
        self.xs
            .write(env, &format!("{}/{leaf}", self.base), &value.to_string());
    }

    pub(crate) fn read<N: std::str::FromStr>(
        &self,
        env: &mut DomainEnv<'_>,
        leaf: &str,
    ) -> Option<N> {
        self.xs
            .read(env, &format!("{}/{leaf}", self.base))?
            .parse()
            .ok()
    }
}

/// The guest half of one request/response queue.
pub(crate) trait FrontTransport: Sized + 'static {
    /// The ABI this transport speaks.
    const BACKEND: Backend;
    /// xenstore kind of this ABI's NICs (`device/<kind>/<name>`).
    const NET_DIR: &'static str;
    /// xenstore kind of this ABI's disks.
    const BLK_DIR: &'static str;

    /// Whether one more request can be posted now; [`Self::post`] may only
    /// follow a `true`.
    fn room(&self) -> bool;
    /// Stages one request and returns its token — unique among the
    /// requests outstanding on this queue. The device sees it at the next
    /// [`Self::publish`].
    fn post(&mut self, header: &[u8], data: DataBuf) -> u32;
    /// Makes every request posted since the last call visible in one
    /// index update; `true` if the device asked for a doorbell — exactly
    /// when publishing them one at a time would have asked at least once.
    fn publish(&mut self) -> bool;
    /// Takes the next completion, if any.
    fn reap(&mut self) -> Option<Completion>;
    /// Asks to be interrupted at the next completion; `true` if one raced
    /// in already (poll again instead of blocking).
    fn arm(&mut self) -> bool;

    /// Allocates one queue, grants it to `backend` and writes its grant
    /// refs to `dir` under keys starting `prefix`.
    fn grant(env: &mut DomainEnv<'_>, dir: &Dir, backend: DomainId, prefix: &str) -> Self;
    /// Readies a bound queue to carry a header with each of up to `depth`
    /// outstanding requests (a disk's queue).
    fn carry_headers(&mut self, env: &mut DomainEnv<'_>, backend: DomainId, depth: usize);
}

/// The dom0 half of one request/response queue.
pub(crate) trait BackTransport {
    /// Takes the next request. `Err(token)`: it was malformed — complete
    /// it failed and move on.
    fn take(&mut self, env: &mut DomainEnv<'_>) -> Option<Result<Request, u32>>;
    /// Stages the return of a request with `len` bytes written; the guest
    /// sees it at the next [`Self::publish`].
    fn complete(&mut self, env: &mut DomainEnv<'_>, token: u32, len: u32, ok: bool);
    /// Makes every completion since the last call visible in one index
    /// update; `true` if the guest asked for an interrupt.
    fn publish(&mut self) -> bool;
    /// Asks for a doorbell at the next request; `true` if one raced in.
    fn arm(&mut self) -> bool;

    /// Maps the queue a frontend advertised in `dir` under keys starting
    /// `prefix`; `None` if a key is missing or a grant does not map.
    fn map(env: &mut DomainEnv<'_>, dir: &Dir, prefix: &str) -> Option<Self>
    where
        Self: Sized;
}

/// A dom0 queue of either ABI.
pub(crate) type BackQueue = Box<dyn BackTransport>;
/// A NIC as attached: per stack queue its event port, TX and RX queue.
pub(crate) type NicQueues = Vec<(Port, BackQueue, BackQueue)>;

// ------------------------------------------------------ shared plumbing

/// Guest pages a backend keeps mapped, by grant ref, and whether writable.
pub(crate) type MapCache = HashMap<u32, (SharedPage, bool)>;

/// Maps `gref` once and remembers the mapping, as a backend keeps guest
/// frames mapped across requests. A writable use of a read-only mapping
/// maps again, which a read-only grant refuses.
pub(crate) fn map_cached(
    env: &mut DomainEnv<'_>,
    cache: &mut MapCache,
    gref: u32,
    writable: bool,
) -> Option<SharedPage> {
    if let Some((page, _)) = cache.get(&gref).filter(|(_, w)| *w || !writable) {
        return Some(page.clone());
    }
    let page = env.grant_map(GrantRef(gref), writable).ok()?;
    cache.insert(gref, (page.clone(), writable));
    Some(page)
}

/// Whether a queue's rings need reading this pass — one `bool` per queue,
/// the cut Mirage's main loop makes by handling only the event channels
/// that fired.
///
/// The rings follow the §3.5.1 protocol: arm, then re-check. Once an
/// `arm` saw no race, new work can only arrive with a notification, and
/// the peer cannot run inside a step, so the channel's pending bit says
/// whether a reap would find anything. A queue is therefore reaped and
/// re-armed only when its channel was pending or its last `arm` reported
/// a race. A fresh gate is open: nothing has been armed yet.
pub(crate) struct Gate(bool);

impl Default for Gate {
    fn default() -> Self {
        Gate(true)
    }
}

impl Gate {
    /// Consumes `port`'s pending bit; `true` if this pass must read the
    /// queue's rings.
    pub(crate) fn open(&mut self, env: &mut DomainEnv<'_>, port: Port) -> bool {
        self.0 |= env.evtchn_consume(port) != Ok(false);
        self.0
    }

    /// Re-arms an open queue with `arm` (every ring of the queue, the
    /// result OR-ed); the gate stays open only if that raced. `true` if it
    /// did: poll again instead of blocking.
    pub(crate) fn close(&mut self, arm: impl FnOnce() -> bool) -> bool {
        self.0 = self.0 && arm();
        self.0
    }
}

/// Where a frontend stands in the xenstore handshake.
pub(crate) enum Link {
    /// Nothing advertised yet: the driver domain may not be up.
    Init,
    /// Rings advertised to this backend domain; waiting for its port(s).
    Advertised(DomainId),
    /// Data plane running.
    Connected,
}

/// The first half of [`Link::Init`]: subscribes the domain to xenstore
/// (idempotent) and looks the driver domain up; its write wakes us if
/// it is not there yet.
pub(crate) fn find_backend(env: &mut DomainEnv<'_>, xs: &Xenstore) -> Option<DomainId> {
    xs.register_watcher(env.domid());
    xs.read(env, "backend-domid")?.parse().ok().map(DomainId)
}

/// Grants and advertises a NIC's queues — a TX/RX pair per stack queue,
/// under `q<q>/{tx,rx}-` — then its domain id and queue count.
pub(crate) fn advertise_nic<T: FrontTransport>(
    env: &mut DomainEnv<'_>,
    dir: &Dir,
    backend: DomainId,
    queues: usize,
) -> Vec<(T, T)> {
    let pairs = (0..queues)
        .map(|q| {
            let tx = T::grant(env, dir, backend, &format!("q{q}/tx-"));
            let rx = T::grant(env, dir, backend, &format!("q{q}/rx-"));
            (tx, rx)
        })
        .collect();
    dir.write(env, "frontend-domid", env.domid().0);
    dir.write(env, "queues", queues);
    pairs
}

/// Once the backend has published a port per queue: binds each, steers it
/// to vCPU `q mod vcpus`, has `fill(env, q)` stock pair `q` and kicks the
/// backend, then marks the device connected. `None` while the backend has
/// not answered — or if a port it published does not bind: the backend's
/// word, not a channel it allocated for us, and the device stays
/// unconnected, with the queues bound before it closed again.
pub(crate) fn connect_nic(
    env: &mut DomainEnv<'_>,
    dir: &Dir,
    backend: DomainId,
    queues: usize,
    mut fill: impl FnMut(&mut DomainEnv<'_>, usize),
) -> Option<Vec<Port>> {
    // The backend publishes every port in one pass.
    let remotes = (0..queues)
        .map(|q| dir.read(env, &format!("q{q}/event-port")).map(Port))
        .collect::<Option<Vec<_>>>()?;
    let mut ports = Vec::with_capacity(queues);
    for (q, remote) in remotes.into_iter().enumerate() {
        let Ok(local) = env.evtchn_bind(backend, remote) else {
            for port in ports {
                let _ = env.evtchn_close(port);
            }
            return None;
        };
        let vcpu = q % env.vcpus();
        if vcpu != 0 {
            let _ = env.evtchn_set_vcpu(local, vcpu);
        }
        fill(env, q);
        env.evtchn_notify(local).expect("bound");
        ports.push(local);
    }
    dir.write(env, "state", "connected");
    Some(ports)
}

/// Grants and advertises a disk's one queue, then its domain id.
pub(crate) fn advertise_disk<T: FrontTransport>(
    env: &mut DomainEnv<'_>,
    dir: &Dir,
    backend: DomainId,
) -> T {
    let queue = T::grant(env, dir, backend, "");
    dir.write(env, "frontend-domid", env.domid().0);
    queue
}

/// Binds the port the backend published and readies `queue` for `depth`
/// outstanding requests. `None` while there is no port, or if it does not
/// bind.
pub(crate) fn connect_disk<T: FrontTransport>(
    env: &mut DomainEnv<'_>,
    dir: &Dir,
    backend: DomainId,
    queue: &mut T,
    depth: usize,
) -> Option<Port> {
    let remote = Port(dir.read(env, "event-port")?);
    let local = env.evtchn_bind(backend, remote).ok()?;
    queue.carry_headers(env, backend, depth);
    Some(local)
}

// ------------------------------------------------------ dom0 discovery

/// Maps every queue a NIC frontend advertised in `dir` and publishes an
/// event port per queue.
pub(crate) fn attach_nic<B: BackTransport + 'static>(
    env: &mut DomainEnv<'_>,
    dir: &Dir,
) -> Option<NicQueues> {
    let frontend = DomainId(dir.read(env, "frontend-domid")?);
    let queues: usize = dir.read(env, "queues").filter(|&q| q > 0)?;
    // The frontend writes every grant before flipping its state, so a
    // partial read is a malformed handshake: map all or nothing.
    let mapped = (0..queues)
        .map(|q| {
            let tx = B::map(env, dir, &format!("q{q}/tx-"))?;
            let rx = B::map(env, dir, &format!("q{q}/rx-"))?;
            Some((tx, rx))
        })
        .collect::<Option<Vec<_>>>()?;
    let pairs = mapped.into_iter().enumerate().map(|(q, (tx, rx))| {
        let port = env.evtchn_alloc_unbound(frontend);
        dir.write(env, &format!("q{q}/event-port"), port.0);
        (port, Box::new(tx) as BackQueue, Box::new(rx) as BackQueue)
    });
    Some(pairs.collect())
}

/// Maps the queue a disk frontend advertised in `dir` and publishes its
/// event port.
pub(crate) fn attach_disk<B: BackTransport + 'static>(
    env: &mut DomainEnv<'_>,
    dir: &Dir,
) -> Option<(Port, BackQueue)> {
    let frontend = DomainId(dir.read(env, "frontend-domid")?);
    let queue = B::map(env, dir, "")?;
    let port = env.evtchn_alloc_unbound(frontend);
    dir.write(env, "event-port", port.0);
    Some((port, Box::new(queue)))
}

/// How to attach one kind of frontend found in xenstore.
pub(crate) enum Probe {
    Nic(fn(&mut DomainEnv<'_>, &Dir) -> Option<NicQueues>),
    Disk(fn(&mut DomainEnv<'_>, &Dir) -> Option<(Port, BackQueue)>),
}

/// Every xenstore directory frontends advertise under, in the order the
/// driver domain scans them.
pub(crate) const PROBES: [(&str, Probe); 4] = [
    ("device/net/", Probe::Nic(attach_nic::<RingBack>)),
    ("device/blk/", Probe::Disk(attach_disk::<RingBack>)),
    ("device/vnet/", Probe::Nic(attach_nic::<VirtqBack>)),
    ("device/vblk/", Probe::Disk(attach_disk::<VirtqBack>)),
];

#[cfg(test)]
mod tests;
