//! Demux — RSS flow hashing and the sharded connection table.
//!
//! Write scope: the id↔entry and 4-tuple↔id indexes, and nothing inside
//! the entries themselves. The table is generic over the entry type so the
//! socket layer can store its own bookkeeping; all the table asks is that
//! an entry can name its flow ([`FlowKeyed`]), because the quad index must
//! be maintained on insert/remove.

use crate::addr::Ipv4Addr;
use mirage_devices::rss;
use mirage_testkit::hash::DetHashMap;

/// Shard count for the connection table: a power of two so the low bits
/// of a connection id name its shard. 64 shards keeps each sub-table at
/// ~16k entries even at a million connections, and is the seam the SMP
/// work pins per-vCPU. The NIC's RSS classifier folds the same space.
pub const SHARD_BITS: u32 = rss::SHARD_BITS;
/// `1 << SHARD_BITS`.
pub const SHARDS: usize = rss::SHARDS as usize;

/// The flow hash over (peer ip, peer port, local port) — the local ip is
/// fixed per interface. It is the NIC classifier's Toeplitz kernel, so a
/// frame is steered to the very core that owns its TCB's shard.
#[inline]
pub fn flow_hash(peer: Ipv4Addr, peer_port: u16, local_port: u16) -> u32 {
    rss::toeplitz(peer.octets(), peer_port, local_port)
}

/// A table entry that can name the flow it belongs to:
/// `(peer ip, peer port, local port)`.
pub trait FlowKeyed {
    /// The flow 3-tuple the table indexes this entry under.
    fn quad(&self) -> (Ipv4Addr, u16, u16);
}

struct Shard<T> {
    conns: DetHashMap<u64, Box<T>>,
    quads: DetHashMap<(Ipv4Addr, u16, u16), u64>,
}

impl<T> Default for Shard<T> {
    fn default() -> Shard<T> {
        Shard {
            conns: DetHashMap::default(),
            quads: DetHashMap::default(),
        }
    }
}

/// The sharded connection table. A connection id is
/// `(sequence << SHARD_BITS) | shard`, so id→shard is a mask and the
/// 4-tuple→shard mapping is the RSS flow hash — every lookup touches
/// exactly one sub-table.
pub struct ConnTable<T: FlowKeyed> {
    shards: Vec<Shard<T>>,
    next_seq: u64,
    len: usize,
}

impl<T: FlowKeyed> Default for ConnTable<T> {
    fn default() -> ConnTable<T> {
        Self::new()
    }
}

impl<T: FlowKeyed> ConnTable<T> {
    /// An empty table with all shards allocated.
    pub fn new() -> ConnTable<T> {
        Self {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            next_seq: 1,
            len: 0,
        }
    }

    /// Live entries across all shards (O(1)).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shard a connection id lives in — a mask, no hashing.
    pub fn shard_of(id: u64) -> usize {
        (id & (SHARDS as u64 - 1)) as usize
    }

    /// Inserts an entry, assigning it an id whose low bits name the shard
    /// the flow hashes to.
    pub fn insert(&mut self, entry: T) -> u64 {
        let quad = entry.quad();
        let shard = (flow_hash(quad.0, quad.1, quad.2) & (SHARDS as u32 - 1)) as usize;
        let id = (self.next_seq << SHARD_BITS) | shard as u64;
        self.next_seq += 1;
        let s = &mut self.shards[shard];
        s.conns.insert(id, Box::new(entry));
        s.quads.insert(quad, id);
        self.len += 1;
        id
    }

    /// Finds the id owning a flow 3-tuple, touching exactly one shard.
    pub fn lookup_quad(&self, quad: &(Ipv4Addr, u16, u16)) -> Option<u64> {
        let shard = (flow_hash(quad.0, quad.1, quad.2) & (SHARDS as u32 - 1)) as usize;
        self.shards[shard].quads.get(quad).copied()
    }

    /// Shared access by id.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.shards[Self::shard_of(id)].conns.get(&id).map(|b| &**b)
    }

    /// Exclusive access by id.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.shards[Self::shard_of(id)]
            .conns
            .get_mut(&id)
            .map(|b| &mut **b)
    }

    /// Removes an entry, cleaning up the quad index.
    pub fn remove(&mut self, id: u64) -> Option<Box<T>> {
        let s = &mut self.shards[Self::shard_of(id)];
        let entry = s.conns.remove(&id)?;
        s.quads.remove(&entry.quad());
        self.len -= 1;
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    #[derive(Debug, PartialEq)]
    struct Entry {
        quad: (Ipv4Addr, u16, u16),
        payload: u64,
    }

    impl FlowKeyed for Entry {
        fn quad(&self) -> (Ipv4Addr, u16, u16) {
            self.quad
        }
    }

    #[test]
    fn flow_hash_known_answers_and_spread() {
        // Pinned values, recorded before the demux and the NIC classifier
        // shared one kernel: the RSS key is fixed at init like real NICs,
        // so the flow→shard mapping must never drift between builds (the
        // C1M shard-occupancy figures depend on it).
        assert_eq!(flow_hash(Ipv4Addr::new(10, 0, 0, 2), 40000, 80), 0xdba0_27c6);
        assert_eq!(flow_hash(Ipv4Addr::new(192, 168, 1, 77), 51515, 443), 0xf7bc_ef7c);
        assert_eq!(flow_hash(Ipv4Addr::new(203, 0, 113, 9), 1, 65535), 0xb9ef_deda);
        let mut distinct = std::collections::BTreeSet::new();
        for port in 0..SHARDS as u16 * 4 {
            distinct.insert(flow_hash(Ipv4Addr::new(10, 0, 0, 2), 40000 + port, 80) & (SHARDS as u32 - 1));
        }
        assert!(distinct.len() > SHARDS / 2, "ports spread over most shards");
    }

    #[test]
    fn id_low_bits_name_the_shard() {
        let mut table: ConnTable<Entry> = ConnTable::new();
        for i in 0..200u16 {
            let quad = (Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8), 1000 + i, 80);
            let id = table.insert(Entry { quad, payload: i as u64 });
            let expect = (flow_hash(quad.0, quad.1, quad.2) & (SHARDS as u32 - 1)) as usize;
            assert_eq!(ConnTable::<Entry>::shard_of(id), expect);
            assert_eq!(table.lookup_quad(&quad), Some(id));
        }
        assert_eq!(table.len(), 200);
    }

    #[test]
    fn seeded_corpus_spreads_within_quarter_of_uniform() {
        // Satellite gate: a seeded corpus of 4-tuples must land within
        // +/-25% of uniform across the 64 shards, and the derived
        // flow hash -> shard -> vCPU assignment must be a pure function
        // of the tuple (identical when recomputed).
        use mirage_testkit::rng::Rng;
        use mirage_testkit::test_seed;
        const FLOWS: usize = SHARDS * 512; // 32768 tuples
        let mut rng = Rng::for_stream(test_seed(), "rss-balance");
        let mut counts = vec![0usize; SHARDS];
        let mut tuples = Vec::with_capacity(FLOWS);
        for _ in 0..FLOWS {
            let ip = Ipv4Addr::from(rng.next_u32());
            let peer_port = rng.next_u32() as u16;
            let local_port = rng.next_u32() as u16;
            tuples.push((ip, peer_port, local_port));
            let shard = flow_hash(ip, peer_port, local_port) as usize & (SHARDS - 1);
            counts[shard] += 1;
        }
        let uniform = FLOWS / SHARDS;
        let (lo, hi) = (uniform * 3 / 4, uniform * 5 / 4);
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                (lo..=hi).contains(&n),
                "shard {shard} got {n} flows; uniform is {uniform} (allowed {lo}..={hi})"
            );
        }
        // Stability: recomputing the whole chain gives the same shard and
        // the same owning vCPU at every fold width.
        for &(ip, pp, lp) in &tuples {
            let shard = flow_hash(ip, pp, lp) as usize & (SHARDS - 1);
            assert_eq!(shard, flow_hash(ip, pp, lp) as usize & (SHARDS - 1));
            for vcpus in [1usize, 2, 4, 8] {
                assert_eq!(shard % vcpus, (flow_hash(ip, pp, lp) as usize & (SHARDS - 1)) % vcpus);
            }
        }
    }

    mirage_testkit::property! {
        /// The sharded table behaves exactly like one flat map under any
        /// interleaving of inserts, removes and lookups.
        fn prop_table_matches_reference_map(
            ops in collection::vec((any::<u8>(), any::<u16>(), any::<bool>()), 1..200),
        ) {
            let mut table: ConnTable<Entry> = ConnTable::new();
            let mut reference: std::collections::BTreeMap<(Ipv4Addr, u16, u16), u64> =
                std::collections::BTreeMap::new();
            for (host, port, insert) in ops {
                let quad = (Ipv4Addr::new(10, 0, 0, host), port, 80);
                if insert && !reference.contains_key(&quad) {
                    let id = table.insert(Entry { quad, payload: port as u64 });
                    reference.insert(quad, id);
                } else if let Some(id) = reference.remove(&quad) {
                    let entry = table.remove(id).expect("reference says present");
                    assert_eq!(entry.quad, quad);
                    assert!(table.get(id).is_none());
                }
                assert_eq!(table.len(), reference.len());
                for (q, id) in &reference {
                    assert_eq!(table.lookup_quad(q), Some(*id), "every live quad resolves");
                    assert_eq!(table.get(*id).map(|e| e.quad), Some(*q));
                }
            }
        }
    }
}
