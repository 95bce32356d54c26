//! The I/O page pool.
//!
//! PVBoot reserves a region of the unikernel's single address space for
//! externally-visible I/O pages (paper §3.2, Figure 2 "ext I/O data"). Pages
//! are handed to device rings by reference and recycled once the garbage
//! collector drops the last view over them (Figure 4). [`PagePool`] models
//! that region: a bounded set of [`PAGE_SIZE`] buffers with automatic return
//! on drop and counters the benchmarks use to prove zero-copy behaviour.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, Weak};

use crate::pktbuf::BufMut;
use crate::PAGE_SIZE;

/// Error returned by [`PagePool::alloc`] when every page is in flight.
///
/// This is the condition under which the paper's network stack applies
/// back-pressure: the transmit path blocks until views are collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted {
    capacity: usize,
}

impl PoolExhausted {
    /// Total number of pages the pool was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all {} I/O pages are in flight", self.capacity)
    }
}

impl Error for PoolExhausted {}

/// Usage counters for a pool; used by the zero-copy micro-benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Pages handed out over the pool's lifetime.
    pub total_allocs: u64,
    /// Pages returned by view drops over the pool's lifetime.
    pub total_recycles: u64,
    /// Pages currently available.
    pub free: usize,
    /// Pool capacity.
    pub capacity: usize,
}

struct PoolInner {
    state: Mutex<PoolState>,
    capacity: usize,
}

struct PoolState {
    free: Vec<Vec<u8>>,
    allocs: u64,
    recycles: u64,
}

/// The bytes behind a view, and the whole page lifecycle: a page taken
/// from a pool goes back to it when its owner — a [`BufMut`] still being
/// written, or the last view over a frozen one — drops. A heap vector
/// adopted at a system edge has no pool and is simply freed.
pub(crate) struct Page {
    pub(crate) data: Vec<u8>,
    pool: Weak<PoolInner>,
}

impl Page {
    /// Adopts `data` as a pool-less page, allocation and all.
    pub(crate) fn heap(data: Vec<u8>) -> Page {
        Page {
            data,
            pool: Weak::new(),
        }
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            debug_assert_eq!(self.data.len(), PAGE_SIZE);
            let mut state = pool.state.lock().expect("pool lock");
            state.free.push(std::mem::take(&mut self.data));
            state.recycles += 1;
        }
    }
}

/// A bounded pool of 4 KiB I/O pages with automatic recycling.
///
/// Cloning the handle is cheap; all clones share the same backing store.
///
/// # Example
///
/// ```
/// use mirage_cstruct::PagePool;
///
/// let pool = PagePool::new(2);
/// let a = pool.alloc().unwrap();
/// let b = pool.alloc().unwrap();
/// assert!(pool.alloc().is_err(), "pool is exhausted");
/// drop(a);
/// assert!(pool.alloc().is_ok(), "drop returned the page");
/// # drop(b);
/// ```
#[derive(Clone)]
pub struct PagePool {
    inner: Arc<PoolInner>,
}

impl fmt::Debug for PagePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagePool")
            .field("capacity", &self.inner.capacity)
            .field("free", &self.free_pages())
            .finish()
    }
}

impl PagePool {
    /// Creates a pool holding `capacity` zeroed pages.
    pub fn new(capacity: usize) -> Self {
        PagePool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    free: (0..capacity).map(|_| vec![0u8; PAGE_SIZE]).collect(),
                    allocs: 0,
                    recycles: 0,
                }),
                capacity,
            }),
        }
    }

    /// Takes a page from the pool for exclusive writing.
    ///
    /// The page contents are zeroed (pages may carry stale data from their
    /// previous use, and a sealed unikernel must not leak it to the wire).
    ///
    /// # Errors
    ///
    /// Returns [`PoolExhausted`] when every page is in flight; callers are
    /// expected to apply back-pressure and retry after views are dropped.
    pub fn alloc(&self) -> Result<BufMut, PoolExhausted> {
        let mut state = self.inner.state.lock().expect("pool lock");
        let mut data = state.free.pop().ok_or(PoolExhausted {
            capacity: self.inner.capacity,
        })?;
        state.allocs += 1;
        drop(state);
        data.fill(0);
        Ok(BufMut::new(Page {
            data,
            pool: Arc::downgrade(&self.inner),
        }))
    }

    /// Number of pages currently available.
    pub fn free_pages(&self) -> usize {
        self.inner.state.lock().expect("pool lock").free.len()
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Lifetime counters plus current occupancy.
    pub fn stats(&self) -> PoolStats {
        let state = self.inner.state.lock().expect("pool lock");
        PoolStats {
            total_allocs: state.allocs,
            total_recycles: state.recycles,
            free: state.free.len(),
            capacity: self.inner.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_exhausted_then_recycle() {
        let pool = PagePool::new(3);
        let pages: Vec<_> = (0..3).map(|_| pool.alloc().unwrap()).collect();
        assert_eq!(pool.free_pages(), 0);
        let err = pool.alloc().unwrap_err();
        assert_eq!(err.capacity(), 3);
        drop(pages);
        assert_eq!(pool.free_pages(), 3);
    }

    #[test]
    fn stats_track_allocs_and_recycles() {
        let pool = PagePool::new(1);
        for _ in 0..5 {
            let page = pool.alloc().unwrap();
            drop(page);
        }
        let stats = pool.stats();
        assert_eq!(stats.total_allocs, 5);
        assert_eq!(stats.total_recycles, 5);
        assert_eq!(stats.free, 1);
        assert_eq!(stats.capacity, 1);
    }

    #[test]
    fn fresh_pages_are_zeroed_after_reuse() {
        let pool = PagePool::new(1);
        let mut page = pool.alloc().unwrap();
        page.as_mut_slice().fill(0xFF);
        drop(page);
        let page = pool.alloc().unwrap();
        assert!(page.as_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn pool_survives_views_outliving_it() {
        let pool = PagePool::new(1);
        let page = pool.alloc().unwrap();
        let buf = page.freeze();
        drop(pool);
        // dropping the view after the pool is gone must not panic; the page
        // is simply freed.
        drop(buf);
    }

    #[test]
    fn display_of_exhaustion_error() {
        let pool = PagePool::new(1);
        let _p = pool.alloc().unwrap();
        let err = pool.alloc().unwrap_err();
        assert_eq!(err.to_string(), "all 1 I/O pages are in flight");
    }
}
