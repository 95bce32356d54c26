//! `mirage-core` — the unikernel toolchain: the paper's primary
//! contribution (paper §2, §3, §5.4).
//!
//! This crate is the part of the system a developer actually touches: it
//! turns *application + libraries + typed configuration* into a sealed,
//! single-address-space appliance.
//!
//! * [`library`] — the Table 1 catalogue with dependency edges and the
//!   modelled object size the boot model reads.
//! * [`config`] — static (compile-time) vs dynamic (boot-time)
//!   configuration, with the cloneability trade-off of §2.3.1.
//! * [`dce`] — link closures: only the libraries the roots reach are
//!   linked.
//! * [`image`] — the linked image with compile-time address-space
//!   randomisation (§2.3.4): a fresh linker layout per deployment.
//! * [`appliance`] — the builder plus [`Appliance::into_guest`], which
//!   boots the image as a hypervisor guest: charge start-of-day work, map
//!   the Figure 2 layout, seal, run `main`.
//!
//! Table 2 (image size at two elimination levels) and Figure 14a (active
//! lines of code) are measured on the appliance binaries this workspace
//! builds, by `scripts/verify.sh`; this crate models neither.
//!
//! # Example
//!
//! ```
//! use mirage_core::{Appliance, Library};
//!
//! let dns = Appliance::builder("dns")
//!     .library(Library::APP_DNS)
//!     .library(Library::NET_DHCP)
//!     .static_config("zone", "example.org")
//!     .dynamic_config("ip")
//!     .build()?;
//! assert!(dns.image().size_bytes() < 1 << 20, "orders smaller than a VM");
//! assert!(!dns.link_set().contains(Library::NET_TCP), "unused ⇒ elided");
//! # Ok::<(), mirage_core::BuildError>(())
//! ```

pub mod appliance;
pub mod config;
pub mod dce;
pub mod image;
pub mod library;

pub use appliance::{Appliance, ApplianceBuilder, BuildError, SealMode};
pub use config::{Binding, Config, ConfigEntry};
pub use dce::LinkSet;
pub use image::{Image, Section};
pub use library::{Library, LibraryInfo, Subsystem, CATALOG};
