//! The simple key-value store and memcache-style interface (paper
//! Table 1: "Simple key-value … Memcache").

use std::sync::Arc;

use mirage_testkit::hash::DetHashMap;
use mirage_testkit::sync::Mutex;

/// Store counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvStats {
    /// Successful gets.
    pub hits: u64,
    /// Gets for missing keys.
    pub misses: u64,
    /// Sets (inserts + overwrites).
    pub sets: u64,
    /// Deletes that removed something.
    pub deletes: u64,
}

struct KvInner {
    map: DetHashMap<Vec<u8>, (Vec<u8>, u64)>, // value, version
    stats: KvStats,
    version: u64,
}

/// Keys a store holds at most. Its keys come from outside (memcache
/// clients), so a `set` of a new key past the cap is refused, as
/// memcached refuses one when it is out of memory; overwriting a key it
/// holds still succeeds.
pub const MAX_KEYS: usize = 65_536;

/// An in-memory key-value store — the smallest Table 1 storage backend
/// (used directly by the dev-mode appliances and as the memcache
/// protocol's state), holding at most [`MAX_KEYS`] keys.
#[derive(Clone)]
pub struct KvStore {
    inner: Arc<Mutex<KvInner>>,
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KvStore({} keys)", self.inner.lock().map.len())
    }
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore::new()
    }
}

impl KvStore {
    /// An empty store.
    pub fn new() -> KvStore {
        KvStore {
            inner: Arc::new(Mutex::new(KvInner {
                map: DetHashMap::default(),
                stats: KvStats::default(),
                version: 0,
            })),
        }
    }

    /// Reads a key; returns the value and its version.
    pub fn get(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let mut inner = self.inner.lock();
        match inner.map.get(key).cloned() {
            Some(v) => {
                inner.stats.hits += 1;
                Some(v)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Writes a key, returning the new version, or `None` if the key is
    /// new and the store already holds [`MAX_KEYS`].
    pub fn set(&self, key: &[u8], value: Vec<u8>) -> Option<u64> {
        let mut inner = self.inner.lock();
        if inner.map.len() >= MAX_KEYS && !inner.map.contains_key(key) {
            return None;
        }
        inner.version += 1;
        let v = inner.version;
        inner.map.insert(key.to_vec(), (value, v));
        inner.stats.sets += 1;
        Some(v)
    }

    /// Removes a key; `true` if it existed.
    pub fn delete(&self, key: &[u8]) -> bool {
        let mut inner = self.inner.lock();
        let removed = inner.map.remove(key).is_some();
        if removed {
            inner.stats.deletes += 1;
        }
        removed
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters.
    pub fn stats(&self) -> KvStats {
        self.inner.lock().stats
    }

    /// All keys, sorted (iteration for dumps/tests).
    pub fn keys(&self) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = self.inner.lock().map.keys().cloned().collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    #[test]
    fn get_set_delete() {
        let kv = KvStore::new();
        assert!(kv.get(b"a").is_none());
        kv.set(b"a", b"1".to_vec());
        assert_eq!(kv.get(b"a").unwrap().0, b"1");
        assert!(kv.delete(b"a"));
        assert!(!kv.delete(b"a"));
        let st = kv.stats();
        assert_eq!((st.hits, st.misses, st.sets, st.deletes), (1, 1, 1, 1));
    }

    #[test]
    fn clones_share_state() {
        let kv = KvStore::new();
        let kv2 = kv.clone();
        kv.set(b"x", b"y".to_vec());
        assert_eq!(kv2.get(b"x").unwrap().0, b"y");
    }

    mirage_testkit::property! {
        /// The store agrees with a HashMap model under arbitrary ops.
        fn prop_matches_model(ops in collection::vec(
            (0u8..3, collection::vec(any::<u8>(), 1..4), collection::vec(any::<u8>(), 0..4)),
            0..200,
        )) {
            let kv = KvStore::new();
            let mut model: std::collections::HashMap<Vec<u8>, Vec<u8>> = Default::default();
            for (op, key, val) in ops {
                match op {
                    0 => {
                        kv.set(&key, val.clone());
                        model.insert(key, val);
                    }
                    1 => {
                        assert_eq!(kv.get(&key).map(|(v, _)| v), model.get(&key).cloned());
                    }
                    _ => {
                        assert_eq!(kv.delete(&key), model.remove(&key).is_some());
                    }
                }
            }
            assert_eq!(kv.len(), model.len());
        }
    }
}
