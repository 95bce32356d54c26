//! The I/O page pool.
//!
//! PVBoot reserves a region of the unikernel's single address space for
//! externally-visible I/O pages (paper §3.2, Figure 2 "ext I/O data"). Pages
//! are handed to device rings by reference and recycled once the garbage
//! collector drops the last view over them (Figure 4). [`PagePool`] models
//! that region: a bounded set of [`PAGE_SIZE`] buffers with automatic return
//! on drop and counters the benchmarks use to prove zero-copy behaviour.
//!
//! A page is made the first time one is needed, up to the capacity, and
//! every page the pool hands out is all zero: a page coming back is
//! cleared as far as a writer could have touched it, and no further.

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
    /// Pages currently available, made or not.
    pub free: usize,
    /// Pool capacity.
    pub capacity: usize,
}

struct PoolInner {
    state: Mutex<PoolState>,
    capacity: usize,
}

struct PoolState {
    /// Pages made and not in flight; every byte is zero.
    free: Vec<Vec<u8>>,
    /// Pages made so far; the rest of the capacity is made on first need.
    made: usize,
    allocs: u64,
    recycles: u64,
}

/// The bytes behind a view, and the whole page lifecycle: a page taken
/// from a pool goes back to it when its owner — a [`BufMut`] still being
/// written, or the last view over a frozen one — drops. A heap vector
/// adopted at a system edge has no pool and is simply freed.
pub(crate) struct Page {
    pub(crate) data: Vec<u8>,
    /// How far from the start a writer could have touched `data`: all a
    /// recycled page needs clearing.
    pub(crate) dirty: usize,
    pool: Weak<PoolInner>,
}

impl Page {
    /// Adopts `data` as a pool-less page, allocation and all.
    pub(crate) fn heap(data: Vec<u8>) -> Page {
        Page {
            data,
            dirty: 0,
            pool: Weak::new(),
        }
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            debug_assert_eq!(self.data.len(), PAGE_SIZE);
            let mut data = std::mem::take(&mut self.data);
            data[..self.dirty].fill(0);
            let mut state = pool.state.lock().expect("pool lock");
            state.free.push(data);
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
    /// Creates a pool of up to `capacity` pages, each made the first time
    /// one is needed.
    pub fn new(capacity: usize) -> Self {
        PagePool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    free: Vec::new(),
                    made: 0,
                    allocs: 0,
                    recycles: 0,
                }),
                capacity,
            }),
        }
    }

    /// Takes a page from the pool for exclusive writing.
    ///
    /// The page contents are zero (a page's previous use was cleared when
    /// it came back: a sealed unikernel must not leak it to the wire).
    ///
    /// # Errors
    ///
    /// Returns [`PoolExhausted`] when every page is in flight; callers are
    /// expected to apply back-pressure and retry after views are dropped.
    pub fn alloc(&self) -> Result<BufMut, PoolExhausted> {
        let mut state = self.inner.state.lock().expect("pool lock");
        let recycled = state.free.pop();
        if recycled.is_none() {
            if state.made == self.inner.capacity {
                return Err(PoolExhausted {
                    capacity: self.inner.capacity,
                });
            }
            state.made += 1;
        }
        state.allocs += 1;
        drop(state);
        Ok(BufMut::new(Page {
            data: recycled.unwrap_or_else(|| vec![0u8; PAGE_SIZE]),
            dirty: 0,
            pool: Arc::downgrade(&self.inner),
        }))
    }

    /// Number of pages currently available, made or not.
    pub fn free_pages(&self) -> usize {
        let state = self.inner.state.lock().expect("pool lock");
        state.free.len() + self.inner.capacity - state.made
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
            free: state.free.len() + self.inner.capacity - state.made,
            capacity: self.inner.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::collection;

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
    fn pages_are_made_on_first_need_and_capacity_binds() {
        let pool = PagePool::new(256);
        let made = || pool.inner.state.lock().expect("pool lock").made;
        assert_eq!(made(), 0, "nothing made until asked");
        assert_eq!(pool.free_pages(), 256, "a page not yet made is free");
        let page = pool.alloc().unwrap();
        drop(page);
        let again = pool.alloc().unwrap();
        assert_eq!(made(), 1, "a recycled page is reused, not remade");
        let rest: Vec<_> = (1..256).map(|_| pool.alloc().unwrap()).collect();
        assert_eq!((made(), pool.free_pages()), (256, 0));
        assert!(pool.alloc().is_err(), "capacity still binds");
        drop((again, rest));
        assert_eq!(pool.stats().free, 256);
    }

    mirage_testkit::property! {
        /// Whatever mix of writers a page went through — `write_at`, the
        /// prefix writer, the whole-page slice, frozen and viewed or not —
        /// the next `alloc` hands it out all zero.
        fn prop_recycled_pages_come_back_zero(
            writes in collection::vec((0u8..3, 0usize..PAGE_SIZE, 1usize..600, 1u8..=255), 1..8),
            freeze in 0u8..2,
        ) {
            let pool = PagePool::new(1);
            let mut page = pool.alloc().unwrap();
            for (kind, at, len, byte) in writes {
                let len = len.min(PAGE_SIZE - at);
                match kind {
                    0 => page.write_at(at, &vec![byte; len]),
                    1 => page.prefix_mut(at + len)[at..].fill(byte),
                    _ => page.as_mut_slice()[at..at + len].fill(byte),
                }
            }
            if freeze == 1 {
                drop(page.freeze());
            } else {
                drop(page);
            }
            let page = pool.alloc().unwrap();
            assert!(page.as_slice().iter().all(|&b| b == 0), "a written byte survived");
        }
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
