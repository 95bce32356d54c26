//! # mirage-testkit — zero-dependency deterministic test & simulation toolkit
//!
//! The paper's sealed-appliance argument (§2, §6) is that an appliance
//! carries everything it needs; this crate is that argument applied to the
//! repo's own verification. It provides, with **no dependencies outside
//! `std`**, the facilities the workspace previously pulled from the
//! registry:
//!
//! * [`rng`] — seeded SplitMix64 / xoshiro256** PRNG (replaces `rand`).
//!   Every simulation run is reproducible from one printed 64-bit seed.
//! * [`prop`] — a minimal property-testing engine with generator
//!   combinators, an N-case driver and greedy shrinking (replaces
//!   `proptest`). Failures report the seed needed to reproduce them.
//! * [`sync`] — `std::sync` primitives behind the `parking_lot`-shaped
//!   `lock()`-returns-guard API (replaces `parking_lot` / `crossbeam`).
//! * [`hash`] — deterministically seeded hash maps for simulation state
//!   whose iteration order must not vary run to run.
//! * [`corpus`] — seeded structure-aware fuzz-case generation (truncation,
//!   length-field lies, pointer loops, oversize claims) for the
//!   adversarial parser suites.
//! * [`alloc`] — a per-thread counting allocator a test binary installs to
//!   hold a code path to an allocation budget.
//!
//! ## One seed to rule a run
//!
//! Everything randomised derives from a single seed: the
//! `MIRAGE_TEST_SEED` environment variable when set, otherwise
//! [`DEFAULT_SEED`]. Two test runs with the same seed produce identical
//! results; a failing property test prints the seed to rerun it.

pub mod alloc;
pub mod corpus;
pub mod hash;
pub mod prop;
pub mod rng;
pub mod sync;
pub mod wheel;

/// The seed used when `MIRAGE_TEST_SEED` is not set. Spells "MIRAGE13"
/// in ASCII — fixed so that default runs are themselves reproducible.
pub const DEFAULT_SEED: u64 = 0x4D49_5241_4745_3133;

/// The run seed: `MIRAGE_TEST_SEED` (decimal or `0x`-prefixed hex) when
/// set and parseable, otherwise [`DEFAULT_SEED`].
pub fn test_seed() -> u64 {
    match std::env::var("MIRAGE_TEST_SEED") {
        Ok(raw) => parse_seed(&raw).unwrap_or(DEFAULT_SEED),
        Err(_) => DEFAULT_SEED,
    }
}

fn parse_seed(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xDEADBEEF"), Some(0xDEAD_BEEF));
        assert_eq!(parse_seed(" 7 "), Some(7));
        assert_eq!(parse_seed("not-a-seed"), None);
    }
}
