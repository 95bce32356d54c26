//! Response memoization (paper §3.5.2 / §4.2).
//!
//! "We found that our DNS server gained a dramatic speed increase by
//! applying a memoization library to network responses" — a 20-line patch
//! that took the appliance from ~40 k to 75–80 kqueries/s (Figure 10).
//! This is that library: a bounded memo table (second-chance LRU, O(1)
//! per lookup hit or miss) with hit statistics, usable by any service
//! whose responses are a pure function of the request.

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::Arc;

use mirage_testkit::hash::DetHashMap;
use mirage_testkit::sync::Mutex;

/// Memo counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries the eviction hand passed over because they had been used
    /// since it last came by. Each hit buys an entry at most one such
    /// pass, so a miss costs O(1) entry visits amortised, however full
    /// the table.
    pub second_chances: u64,
}

struct Entry<K, V> {
    key: K,
    value: V,
    /// Hit since the eviction hand last passed.
    used: bool,
}

/// Second-chance (CLOCK) approximation of LRU: entries sit in a ring in
/// insertion order; a hit marks its entry, and the hand evicts the first
/// unmarked entry it meets, unmarking the ones it passes.
struct MemoInner<K, V> {
    /// Key → position in `slots`. Keys come from whoever the caller
    /// serves, so the std hasher's per-process random key stays: the
    /// ring, not the map's iteration order, decides evictions.
    index: DetHashMap<K, usize>,
    slots: Vec<Entry<K, V>>,
    hand: usize,
    capacity: usize,
    stats: MemoStats,
}

/// A bounded memoization table.
///
/// # Example
///
/// ```
/// use mirage_storage::memo::Memoizer;
///
/// let memo: Memoizer<u32, u32> = Memoizer::new(128);
/// let square = |x: &u32| x * x;
/// assert_eq!(memo.get_or_compute(7, square), 49);
/// assert_eq!(memo.get_or_compute(7, |_| unreachable!("memoized")), 49);
/// assert_eq!(memo.stats().hits, 1);
/// ```
pub struct Memoizer<K, V> {
    inner: Arc<Mutex<MemoInner<K, V>>>,
}

impl<K, V> Clone for Memoizer<K, V> {
    fn clone(&self) -> Self {
        Memoizer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K: Eq + Hash, V> std::fmt::Debug for Memoizer<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        write!(
            f,
            "Memoizer({}/{} entries)",
            inner.slots.len(),
            inner.capacity
        )
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memoizer<K, V> {
    /// A table bounded to `capacity` entries (LRU eviction).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Memoizer<K, V> {
        assert!(capacity > 0, "memo table needs at least one slot");
        Memoizer {
            inner: Arc::new(Mutex::new(MemoInner {
                index: DetHashMap::default(),
                slots: Vec::new(),
                hand: 0,
                capacity,
                stats: MemoStats::default(),
            })),
        }
    }

    /// Returns the memoized value for `key`, computing and inserting it on
    /// first use.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce(&K) -> V) -> V {
        self.get_or_compute_by(&key, compute).0
    }

    /// [`Memoizer::get_or_compute`] by a borrowed form of the key — owned
    /// only if it has to be inserted — also saying whether the value came
    /// from the table (`true`) or was computed (`false`). A hit allocates
    /// nothing but the clone of the value it returns.
    pub fn get_or_compute_by<Q>(&self, key: &Q, compute: impl FnOnce(&Q) -> V) -> (V, bool)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(&at) = inner.index.get(key) {
            let entry = &mut inner.slots[at];
            entry.used = true;
            inner.stats.hits += 1;
            return (entry.value.clone(), true);
        }
        inner.stats.misses += 1;
        // Computed under the lock: callers' compute fns are cheap and pure.
        let value = compute(key);
        let key = key.to_owned();
        let entry = Entry {
            key: key.clone(),
            value: value.clone(),
            used: false,
        };
        let at = if inner.slots.len() < inner.capacity {
            inner.slots.push(entry);
            inner.slots.len() - 1
        } else {
            while inner.slots[inner.hand].used {
                inner.slots[inner.hand].used = false;
                inner.hand = (inner.hand + 1) % inner.capacity;
                inner.stats.second_chances += 1;
            }
            let at = inner.hand;
            let victim = std::mem::replace(&mut inner.slots[at], entry);
            inner.index.remove::<K>(&victim.key);
            inner.hand = (at + 1) % inner.capacity;
            inner.stats.evictions += 1;
            at
        };
        inner.index.insert(key, at);
        (value, false)
    }

    /// Looks up without computing.
    pub fn peek(&self, key: &K) -> Option<V> {
        let inner = self.inner.lock();
        inner
            .index
            .get(key)
            .map(|&at| inner.slots[at].value.clone())
    }

    /// Counters.
    pub fn stats(&self) -> MemoStats {
        self.inner.lock().stats
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_reports_hits() {
        let memo: Memoizer<String, usize> = Memoizer::new(8);
        let mut computed = 0;
        for _ in 0..3 {
            let v = memo.get_or_compute("key".to_owned(), |k| {
                computed += 1;
                k.len()
            });
            assert_eq!(v, 3);
        }
        assert_eq!(computed, 1, "computed exactly once");
        let st = memo.stats();
        assert_eq!((st.hits, st.misses), (2, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let memo: Memoizer<u32, u32> = Memoizer::new(2);
        memo.get_or_compute(1, |_| 1);
        memo.get_or_compute(2, |_| 2);
        memo.get_or_compute(1, |_| 1); // refresh 1
        memo.get_or_compute(3, |_| 3); // evicts 2
        assert!(memo.peek(&1).is_some());
        assert!(memo.peek(&2).is_none(), "2 was least recently used");
        assert!(memo.peek(&3).is_some());
        assert_eq!(memo.stats().evictions, 1);
    }

    #[test]
    fn a_full_table_visits_a_bounded_number_of_entries_per_miss() {
        const CAP: u64 = 4096;
        let memo: Memoizer<u64, u64> = Memoizer::new(CAP as usize);
        for k in 0..CAP {
            memo.get_or_compute(k, |&k| k);
        }
        // Every entry freshly used — the hand's worst case: the next
        // miss sweeps the whole ring once, and that sweep is then paid for.
        for k in 0..CAP {
            memo.get_or_compute(k, |_| unreachable!("cached"));
        }
        const MISSES: u64 = 10_000;
        for k in CAP..CAP + MISSES {
            memo.get_or_compute(k, |&k| k);
        }
        let st = memo.stats();
        assert_eq!(
            (st.hits, st.misses, st.evictions),
            (CAP, CAP + MISSES, MISSES)
        );
        // One visit to evict per miss, plus at most one pass per earlier
        // hit — not `capacity` visits per miss.
        assert!(st.second_chances <= st.hits, "{st:?}");
        assert_eq!(memo.len(), CAP as usize);
        // The table still answers for exactly the newest CAP keys.
        assert_eq!(memo.peek(&(CAP + MISSES - 1)), Some(CAP + MISSES - 1));
        assert_eq!(memo.peek(&0), None);
    }

    #[test]
    fn borrowed_lookup_reports_hit_or_miss() {
        let memo: Memoizer<Vec<u8>, usize> = Memoizer::new(4);
        let key: &[u8] = b"question";
        assert_eq!(memo.get_or_compute_by(key, |k| k.len()), (8, false));
        assert_eq!(
            memo.get_or_compute_by(key, |_| unreachable!("cached")),
            (8, true)
        );
        assert_eq!(memo.peek(&key.to_vec()), Some(8));
        let st = memo.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _: Memoizer<u8, u8> = Memoizer::new(0);
    }
}
