//! Deterministic hashing for simulation state.
//!
//! `std::collections::HashMap`'s default hasher is randomly seeded per
//! process, so iteration order — and anything derived from it, like LRU
//! tie-breaks, or when a table grows and so how often it allocates —
//! varies run to run. Every map in the product is a [`DetHashMap`]
//! instead: FNV-1a, fixed initial state, identical on every run and
//! platform.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, 64-bit. Not DoS-resistant: whoever picks the keys can make
/// them collide. So a product map keyed by bytes from outside holds a
/// bounded number of entries, and a collision costs at most a scan of
/// that many:
///
/// * the switch's MAC table, at most 256 source MACs per port;
/// * the OpenFlow learning switch's MAC tables, at most 256 per port;
/// * the DNS memo, its configured capacity;
/// * a DNS label-compression table, the names of one message;
/// * a virtqueue's in-flight ids, fewer than `QUEUE_SIZE` (128);
/// * the ARP cache, `arp::MAX_ENTRIES` (1 024) addresses;
/// * the memcache responder's `KvStore`, `kv::MAX_KEYS` (65 536) keys.
#[derive(Debug, Clone)]
pub struct DetHasher(u64);

impl Default for DetHasher {
    fn default() -> DetHasher {
        DetHasher(0xCBF2_9CE4_8422_2325)
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01B3);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Deterministic `BuildHasher` (implements `Default`, so the map type
/// below works with `Default::default()`).
pub type DetBuildHasher = BuildHasherDefault<DetHasher>;

/// A `HashMap` with run-to-run stable hashing and iteration order.
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_order_is_stable() {
        let build = |n: u64| {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..n {
                m.insert(i * 31, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(64), build(64));
    }

    #[test]
    fn hasher_matches_reference_fnv() {
        let mut h = DetHasher::default();
        h.write(b"mirage");
        // Independent FNV-1a implementation for cross-checking.
        assert_eq!(h.finish(), crate::rng::fnv1a(b"mirage"));
    }
}
