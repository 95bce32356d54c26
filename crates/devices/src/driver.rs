//! Driver traits and the backend factory — the functor seam.
//!
//! Mirage programs device consumers against abstract driver signatures
//! and swaps implementations underneath (functor-driven development);
//! this module is that seam for the two ring ABIs. Consumers hold a
//! [`NetDriver`] or [`BlkDriver`] trait object and a stack-facing handle;
//! which transport carries the bytes — the Xen-style descriptor ring or
//! the virtio split virtqueue, the two impls of
//! `transport`'s signature under the one NIC and the one block
//! frontend — is a [`Backend`] value chosen per device at domain-creation
//! time, one flag end to end:
//!
//! ```ignore
//! let backend = Backend::from_env(); // MIRAGE_BACKEND=xen|virtio
//! let (net, handle) = backend.net(xs.clone(), "eth0", mac, CopyDiscipline::ZeroCopy);
//! guest.add_device(net); // Box<dyn NetDriver> upcasts to Box<dyn DeviceService>
//! ```
//!
//! The conformance suite (`tests/conformance.rs`) runs identical
//! workloads over both values and diffs the application transcripts.

use mirage_runtime::DeviceService;

use crate::blk::{BlkHandle, Blkif};
use crate::netfront::{CopyDiscipline, NetHandle, Netif};
use crate::transport::{RingFront, VirtqFront};
use crate::xenstore::Xenstore;

/// Which ring ABI a device speaks to the driver domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Xen-style descriptor rings: one shared page per ring, requests
    /// and responses in place, `req_event`/`rsp_event` suppression.
    #[default]
    XenRing,
    /// Virtio split virtqueues: descriptor table + avail/used rings,
    /// EVENT_IDX suppression, per-queue event channels.
    Virtio,
}

impl Backend {
    /// Both backends, in fixed order — the axis differential tests
    /// iterate over.
    pub const ALL: [Backend; 2] = [Backend::XenRing, Backend::Virtio];

    /// Parses `"xen"` / `"virtio"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "xen" | "xenring" | "xen-ring" => Some(Backend::XenRing),
            "virtio" => Some(Backend::Virtio),
            _ => None,
        }
    }

    /// Reads `MIRAGE_BACKEND` from the environment (default:
    /// [`Backend::XenRing`]).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised value — a misspelt backend silently
    /// falling back to the default would invalidate a differential run.
    pub fn from_env() -> Backend {
        match std::env::var("MIRAGE_BACKEND") {
            Ok(v) => Backend::parse(&v)
                .unwrap_or_else(|| panic!("MIRAGE_BACKEND={v:?}: expected \"xen\" or \"virtio\"")),
            Err(_) => Backend::default(),
        }
    }

    /// Stable lowercase name (`xen` / `virtio`), as accepted by
    /// [`Backend::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Backend::XenRing => "xen",
            Backend::Virtio => "virtio",
        }
    }

    /// Creates a single-queue network device over this backend.
    pub fn net(
        self,
        xs: Xenstore,
        name: impl Into<String>,
        mac: [u8; 6],
        discipline: CopyDiscipline,
    ) -> (Box<dyn NetDriver>, NetHandle) {
        let (driver, mut handles) = self.net_multiqueue(xs, name, mac, discipline, 1);
        (driver, handles.remove(0))
    }

    /// Creates a multi-queue network device over this backend: one
    /// stack-facing handle per queue, for `Stack::spawn_sharded`-style
    /// per-core consumers. On either ABI, queue *q* has its own TX/RX ring
    /// pair and an event channel bound to vCPU `q % vcpus`. The switch
    /// delivers received IPv4 TCP frames into the queue their Toeplitz
    /// flow hash names, modulo the queue count ([`crate::rss::queue_of`]);
    /// everything else rides queue 0. Pass handle *q* to stack worker *q*.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn net_multiqueue(
        self,
        xs: Xenstore,
        name: impl Into<String>,
        mac: [u8; 6],
        discipline: CopyDiscipline,
        queues: usize,
    ) -> (Box<dyn NetDriver>, Vec<NetHandle>) {
        let name = name.into();
        match self {
            Backend::XenRing => Netif::<RingFront>::create(xs, name, mac, discipline, queues),
            Backend::Virtio => Netif::<VirtqFront>::create(xs, name, mac, discipline, queues),
        }
    }

    /// Creates a block device of `sectors` sectors over this backend.
    pub fn blk(
        self,
        xs: Xenstore,
        name: impl Into<String>,
        sectors: u64,
    ) -> (Box<dyn BlkDriver>, BlkHandle) {
        let name = name.into();
        match self {
            Backend::XenRing => Blkif::<RingFront>::create(xs, name, sectors),
            Backend::Virtio => Blkif::<VirtqFront>::create(xs, name, sectors),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A network device frontend, independent of ring ABI. Supertrait
/// [`DeviceService`] lets the trait object plug straight into
/// [`UnikernelGuest::add_device`](mirage_runtime::UnikernelGuest::add_device)
/// by upcast.
pub trait NetDriver: DeviceService {
    /// Which transport this device speaks.
    fn backend(&self) -> Backend;
    /// The interface MAC address.
    fn mac(&self) -> [u8; 6];
}

/// A block device frontend, independent of ring ABI.
pub trait BlkDriver: DeviceService {
    /// Which transport this device speaks.
    fn backend(&self) -> Backend;
}

#[cfg(test)]
impl Backend {
    /// A scripted frontend over this backend that posts whatever it is
    /// told (see `netback::raw`).
    pub(crate) fn raw(
        self,
        xs: Xenstore,
        kind: crate::netback::raw::Kind,
        script: Vec<crate::netback::raw::Post>,
        done: std::sync::Arc<mirage_testkit::sync::Mutex<Vec<crate::transport::Completion>>>,
    ) -> Box<dyn DeviceService> {
        use crate::netback::raw::Raw;
        match self {
            Backend::XenRing => Box::new(Raw::<RingFront>::new(xs, kind, script, done)),
            Backend::Virtio => Box::new(Raw::<VirtqFront>::new(xs, kind, script, done)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_round_trips() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(Backend::parse("XEN"), Some(Backend::XenRing));
        assert_eq!(Backend::parse("gvisor"), None);
        assert_eq!(Backend::default(), Backend::XenRing);
    }

    #[test]
    fn factory_produces_the_requested_backend() {
        let xs = Xenstore::new();
        for b in Backend::ALL {
            let (net, handle) = b.net(
                xs.clone(),
                format!("nic-{b}"),
                [2, 0, 0, 0, 0, 1],
                CopyDiscipline::ZeroCopy,
            );
            assert_eq!(net.backend(), b);
            assert_eq!(NetDriver::mac(&*net), handle.mac);
            let (blk, bh) = b.blk(xs.clone(), format!("vda-{b}"), 1024);
            assert_eq!(blk.backend(), b);
            assert_eq!(bh.sectors, 1024);
        }
    }
}
