//! The mirage-rs experiment harness.
//!
//! One bench target per table and figure of the paper's evaluation (§4);
//! each prints the same rows/series the paper reports, in virtual time on
//! the simulated substrate, and reads no host clock: the same seed prints
//! the same bytes. Wall-clock cost is measured by `benchmark/` alone. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record.

pub mod blocksim;
pub mod bootsim;
pub mod netsim;
pub mod report;
pub mod threadsim;
