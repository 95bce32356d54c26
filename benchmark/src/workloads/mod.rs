//! The six workloads. Each builds a fresh world from a seed; `rep::run`
//! drives it through set-up, the measured phase and the stats report.
//! Sizes are fixed (never scaled to the host), so every virtual figure is
//! a function of the seed alone; they are chosen so that one repetition's
//! measured phase takes 0.5–0.7 s of host time.

pub mod dns;
pub mod http;
pub mod kv;
pub mod tcp;

use crate::world::World;

/// Which layer the root `op` span's self time belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum RootSelf {
    /// The caller waits for a reply: what is not inside a server-side span
    /// is everything under the socket API, both directions.
    Transit,
    /// The caller is the receiving task of a bulk flow: what is not a
    /// `read().await` is its own per-segment work.
    App,
}

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it stresses and what it is the bypass for.
    pub why: &'static str,
    pub build: fn(seed: u64) -> World,
    pub root_self: RootSelf,
    /// Whether its devices speak virtio (else Xen rings).
    pub virtio: bool,
}

const MIB: usize = 1024 * 1024;

pub const ALL: &[Workload] = &[
    Workload {
        name: "tcp_bulk",
        why: "one clean full-MSS flow: ring, netfront, netback and tcp::{rod,flow,cong} do all the work; the single-flow ceiling",
        build: |seed| {
            tcp::build(tcp::Shape { flows: 1, bytes_per_flow: 128 * MIB, smp_host: false, lossy: false }, seed)
        },
        root_self: RootSelf::App,
        virtio: false,
    },
    Workload {
        name: "tcp_fan16",
        why: "16 flows between 1-vCPU guests: queues, TX backlog quota and RTO timers dominate; the 1-vCPU collapse anomaly",
        build: |seed| {
            tcp::build(tcp::Shape { flows: 16, bytes_per_flow: 8 * MIB, smp_host: true, lossy: false }, seed)
        },
        root_self: RootSelf::App,
        virtio: false,
    },
    Workload {
        name: "tcp_lossy",
        why: "tcp_bulk through seeded 1% loss, 2ms delay and reordering: reassembly, dup-acks, RTO wheel instead of the fast path",
        build: |seed| {
            tcp::build(tcp::Shape { flows: 1, bytes_per_flow: 64 * MIB, smp_host: false, lossy: true }, seed)
        },
        root_self: RootSelf::App,
        virtio: false,
    },
    Workload {
        name: "http_churn",
        why: "short connections, small messages, sets beside gets, on virtio: handshake/teardown, demux, admission, timers, http::wire; bulk path idle",
        build: http::build,
        root_self: RootSelf::Transit,
        virtio: true,
    },
    Workload {
        name: "dns_udp",
        why: "smallest packets, no TCP: per-packet cost of ring, netfront, netback, stack demux and udp, plus the memo table below hit ratio 1",
        build: dns::build,
        root_self: RootSelf::Transit,
        virtio: false,
    },
    Workload {
        name: "kv_blk",
        why: "no network: B-tree gets beside copy-on-write sets over the blk ring and grant path alone; net-path changes must not move it",
        build: kv::build,
        root_self: RootSelf::Transit,
        virtio: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
