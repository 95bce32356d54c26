//! The Mirage OpenFlow suite for mirage-rs (paper §4.3, Figure 11).
//!
//! "Mirage provides libraries implementing an OpenFlow protocol parser,
//! controller, and switch." This crate is that triple:
//!
//! * [`wire`] — the OpenFlow 1.0 codec (handshake, echo, packet-in/out,
//!   flow-mod with the 10-tuple match).
//! * [`controller`] — the controller session plus the [`controller::LearningSwitch`]
//!   application the cbench comparison exercises.
//! * [`switch`] — the datapath library: flow table, miss-punting, and
//!   packet-out/flow-mod handling.
//! * [`cbench`] — the cbench workload generator in batch and single modes
//!   (the exact Figure 11 scenarios).
//!
//! Sessions are sans-io (`bytes in → bytes out`), so they run identically
//! over a TCP stream from `mirage-net`, a vchan, or directly in the
//! benchmark harness.

pub mod cbench;
pub mod controller;
pub mod switch;
pub mod wire;

pub use cbench::{Cbench, CbenchMode, CbenchReport};
pub use controller::{Connection, ControllerApp, ControllerStats, LearningSwitch};
pub use switch::{FlowEntry, Forward, OfSwitch, SwitchStats};
pub use wire::{FlowModCommand, OfAction, OfError, OfMatch, OfMessage, NO_BUFFER, PORT_FLOOD};
