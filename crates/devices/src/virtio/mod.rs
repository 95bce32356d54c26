//! Virtio-style split virtqueues — the second device ABI.
//!
//! The paper's device claims (grants, shared-memory rings, bounded copy
//! counts, §3.4) are about mechanisms, not about the Xen ring layout
//! specifically. [`virtqueue`] is the virtio 1.0 ring primitive —
//! descriptor table + avail/used rings with EVENT_IDX doorbell
//! suppression, [`virtqueue::SplitQueue`] (driver half) and
//! [`virtqueue::DeviceQueue`] (device half) — that `crate::transport`
//! wraps as its second impl, so the one NIC frontend, the one block
//! frontend and the driver domain run unchanged over either ABI and the
//! conformance suite can diff them workload-by-workload.
//!
//! Selection is a [`crate::driver::Backend`] value at device-creation
//! time; consumers program against the [`crate::driver::NetDriver`] /
//! [`crate::driver::BlkDriver`] traits and never name an ABI.

pub mod virtqueue;

pub use virtqueue::{DeviceQueue, QueuePages, SplitQueue, QUEUE_SIZE};
