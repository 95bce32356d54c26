//! Demux — one worker's connection table.
//!
//! Write scope: the id↔entry and 4-tuple↔id indexes, and nothing inside
//! the entries themselves. The table is generic over the entry type so the
//! socket layer can store its own bookkeeping; all the table asks is that
//! an entry can name its flow ([`FlowKeyed`]), because the quad index must
//! be maintained on insert/remove. Which worker a flow belongs to was
//! decided before its frame arrived (`mirage_devices::rss`), so the table
//! hashes nothing of its own.

use crate::addr::Ipv4Addr;
use mirage_testkit::hash::DetHashMap;

/// A table entry that can name the flow it belongs to:
/// `(peer ip, peer port, local port)`.
pub trait FlowKeyed {
    /// The flow 3-tuple the table indexes this entry under.
    fn quad(&self) -> (Ipv4Addr, u16, u16);
}

/// The connection table: entries by id, and ids by flow. Ids come from a
/// sequence and are never reused.
pub struct ConnTable<T: FlowKeyed> {
    conns: DetHashMap<u64, Box<T>>,
    quads: DetHashMap<(Ipv4Addr, u16, u16), u64>,
    next_id: u64,
}

impl<T: FlowKeyed> Default for ConnTable<T> {
    fn default() -> ConnTable<T> {
        Self::new()
    }
}

impl<T: FlowKeyed> ConnTable<T> {
    /// An empty table.
    pub fn new() -> ConnTable<T> {
        Self {
            conns: DetHashMap::default(),
            quads: DetHashMap::default(),
            next_id: 1,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Inserts an entry and returns its new id.
    pub fn insert(&mut self, entry: T) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.quads.insert(entry.quad(), id);
        self.conns.insert(id, Box::new(entry));
        id
    }

    /// Finds the id owning a flow 3-tuple.
    pub fn lookup_quad(&self, quad: &(Ipv4Addr, u16, u16)) -> Option<u64> {
        self.quads.get(quad).copied()
    }

    /// Shared access by id.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.conns.get(&id).map(|b| &**b)
    }

    /// Exclusive access by id.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.conns.get_mut(&id).map(|b| &mut **b)
    }

    /// Removes an entry, cleaning up the quad index.
    pub fn remove(&mut self, id: u64) -> Option<Box<T>> {
        let entry = self.conns.remove(&id)?;
        self.quads.remove(&entry.quad());
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

    mirage_testkit::property! {
        /// The table behaves exactly like one flat map under any
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
