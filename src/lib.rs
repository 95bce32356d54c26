//! # mirage-rs — unikernels as a Rust library
//!
//! A full-system reproduction of *Unikernels: Library Operating Systems for
//! the Cloud* (Madhavapeddy et al., ASPLOS 2013). This facade crate
//! re-exports every subsystem of the workspace so that appliances, examples
//! and experiments can be written against one coherent namespace:
//!
//! * [`hypervisor`] — the Xen-like substrate: domains, virtual clock, event
//!   channels, grant tables, the `seal` hypercall, vchan, and the toolstack.
//! * [`pvboot`] — start-of-day memory layout, extent/slab allocators,
//!   `domainpoll`.
//! * [`runtime`] — the cooperative (Lwt-style) executor and timers.
//! * [`cstruct`] — zero-copy I/O pages, views and endian accessors.
//! * [`ring`] — shared-memory producer/consumer rings.
//! * [`devices`] — netfront/netback, blkfront/blkback, console.
//! * [`net`] — Ethernet, ARP, IPv4, ICMP, UDP, TCP (New Reno), DHCP.
//! * [`storage`] — block layer, FAT-32, append B-tree, KV, memoization.
//! * [`dns`], [`http`], [`openflow`] — the appliance protocol suites.
//! * [`core`] — the unikernel builder: configuration, link closures,
//!   compile-time ASR, the modelled image size and sealing.
//! * [`baseline`] — the conventional-OS comparison stack (Linux-like VM
//!   model plus BIND/NSD/Apache/nginx/NOX/Maestro analogues).
//!
//! ## Quickstart
//!
//! ```
//! use mirage::core::{Appliance, Library};
//! use mirage::hypervisor::Hypervisor;
//!
//! // Assemble a DNS appliance out of libraries, exactly as the paper's
//! // toolchain links OCaml libraries into a bootable kernel.
//! let appliance = Appliance::builder("dns")
//!     .library(Library::NET_UDP)
//!     .library(Library::APP_DNS)
//!     .static_config("zone", "example.org")
//!     .build()
//!     .expect("dependency closure resolves");
//!
//! assert!(appliance.image().size_bytes() < 1 << 20, "unikernels are small");
//! let mut hv = Hypervisor::new();
//! # let _ = &mut hv;
//! ```

pub use mirage_baseline as baseline;
pub use mirage_core as core;
pub use mirage_cstruct as cstruct;
pub use mirage_devices as devices;
pub use mirage_dns as dns;
pub use mirage_http as http;
pub use mirage_hypervisor as hypervisor;
pub use mirage_net as net;
pub use mirage_openflow as openflow;
pub use mirage_pvboot as pvboot;
pub use mirage_ring as ring;
pub use mirage_runtime as runtime;
pub use mirage_storage as storage;
