//! The Mirage DNS suite for mirage-rs (paper §4.2).
//!
//! An authoritative DNS server built entirely from libraries: wire codec
//! with compression ([`wire`], [`name`]), Bind9-format zone files
//! ([`zone`]), and the server core with response memoization ([`server`]).
//! The Figure 10 benchmark drives [`server::DnsServer::answer`] both with
//! and without the memo table; the compression-table ablation from §4.2
//! (hashtable vs size-first ordered map) is selectable per server.

pub mod name;
pub mod server;
pub mod wire;
pub mod zone;

pub use name::{CompressionTable, DnsName, NameError};
pub use server::{CompressionStrategy, DnsServer, DnsServerStats, ServerConfig};
pub use wire::{Message, Question, RData, RType, Rcode, Record};
pub use zone::{Zone, ZoneError};
