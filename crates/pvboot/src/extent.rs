//! The extent allocator (paper §3.2).
//!
//! "The extent allocator reserves a contiguous area of virtual memory which
//! it manipulates in 2 MB chunks, permitting the mapping of x86_64
//! superpages." The major OCaml heap grows through this allocator, which is
//! why a Mirage unikernel can guarantee a contiguous heap and skip the page
//! table bookkeeping a userspace GC needs (§3.3).

use std::fmt;

/// Size of one extent chunk: a 2 MiB x86-64 superpage.
pub const CHUNK_SIZE: u64 = 2 * 1024 * 1024;

/// An allocation handle: a contiguous run of chunks inside the reserved
/// region, expressed as byte offsets from the region base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// Byte offset of the first chunk from the region base.
    pub offset: u64,
    /// Length in bytes (a multiple of [`CHUNK_SIZE`]).
    pub len: u64,
}

impl Extent {
    /// Exclusive end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Whether two extents share any byte.
    pub fn overlaps(&self, other: &Extent) -> bool {
        self.offset < other.end() && other.offset < self.end()
    }
}

/// Errors from the extent allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtentError {
    /// Not enough contiguous chunks remain.
    OutOfMemory,
    /// A zero-chunk request.
    ZeroSized,
    /// Freeing a range that is not an allocated extent.
    BadFree,
}

impl fmt::Display for ExtentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ExtentError::OutOfMemory => "no contiguous run of free chunks is large enough",
            ExtentError::ZeroSized => "zero-sized extent requested",
            ExtentError::BadFree => "range is not an allocated extent",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ExtentError {}

/// First-fit allocator over a contiguous reserved region, in 2 MiB chunks,
/// with coalescing on free.
///
/// # Example
///
/// ```
/// use mirage_pvboot::extent::{ExtentAllocator, CHUNK_SIZE};
///
/// let mut alloc = ExtentAllocator::new(8 * CHUNK_SIZE);
/// let a = alloc.alloc(2)?;
/// let b = alloc.alloc(1)?;
/// assert!(!a.overlaps(&b));
/// alloc.free(a)?;
/// assert_eq!(alloc.free_bytes(), 7 * CHUNK_SIZE);
/// # Ok::<(), mirage_pvboot::extent::ExtentError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExtentAllocator {
    region_len: u64,
    /// Sorted, coalesced list of free runs.
    free: Vec<Extent>,
    /// Outstanding allocations (for free() validation).
    allocated: Vec<Extent>,
    total_allocs: u64,
}

impl ExtentAllocator {
    /// Reserves a region of `region_len` bytes (rounded down to whole
    /// chunks).
    pub fn new(region_len: u64) -> ExtentAllocator {
        let region_len = region_len - region_len % CHUNK_SIZE;
        let free = if region_len == 0 {
            Vec::new()
        } else {
            vec![Extent {
                offset: 0,
                len: region_len,
            }]
        };
        ExtentAllocator {
            region_len,
            free,
            allocated: Vec::new(),
            total_allocs: 0,
        }
    }

    /// Allocates `chunks` contiguous 2 MiB chunks, first fit.
    ///
    /// # Errors
    ///
    /// [`ExtentError::ZeroSized`] for zero requests, otherwise
    /// [`ExtentError::OutOfMemory`] when no free run is long enough.
    pub fn alloc(&mut self, chunks: u64) -> Result<Extent, ExtentError> {
        if chunks == 0 {
            return Err(ExtentError::ZeroSized);
        }
        let want = chunks * CHUNK_SIZE;
        let idx = self
            .free
            .iter()
            .position(|run| run.len >= want)
            .ok_or(ExtentError::OutOfMemory)?;
        // Carve the extent off the front of the run; the free list stays
        // sorted.
        let run = &mut self.free[idx];
        let ext = Extent {
            offset: run.offset,
            len: want,
        };
        if run.len == want {
            self.free.remove(idx);
        } else {
            run.offset += want;
            run.len -= want;
        }
        self.allocated.push(ext);
        self.total_allocs += 1;
        Ok(ext)
    }

    /// Returns an extent to the free list, coalescing with neighbours.
    ///
    /// # Errors
    ///
    /// [`ExtentError::BadFree`] if `ext` was not returned by
    /// [`ExtentAllocator::alloc`] (or was already freed).
    pub fn free(&mut self, ext: Extent) -> Result<(), ExtentError> {
        let idx = self
            .allocated
            .iter()
            .position(|a| *a == ext)
            .ok_or(ExtentError::BadFree)?;
        self.allocated.swap_remove(idx);
        // Insert sorted and coalesce.
        let pos = self
            .free
            .iter()
            .position(|run| run.offset > ext.offset)
            .unwrap_or(self.free.len());
        self.free.insert(pos, ext);
        self.coalesce();
        Ok(())
    }

    fn coalesce(&mut self) {
        let mut i = 0;
        while i + 1 < self.free.len() {
            if self.free[i].end() == self.free[i + 1].offset {
                self.free[i].len += self.free[i + 1].len;
                self.free.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    /// Total free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|r| r.len).sum()
    }

    /// Total bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated.iter().map(|r| r.len).sum()
    }

    /// Size of the reserved region.
    pub fn region_len(&self) -> u64 {
        self.region_len
    }

    /// Length of the largest free run (fragmentation metric).
    pub fn largest_free_run(&self) -> u64 {
        self.free.iter().map(|r| r.len).max().unwrap_or(0)
    }

    /// Lifetime allocation count.
    pub fn total_allocs(&self) -> u64 {
        self.total_allocs
    }

    /// Outstanding allocations (audit).
    pub fn allocations(&self) -> &[Extent] {
        &self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    #[test]
    fn alloc_free_round_trip() {
        let mut a = ExtentAllocator::new(4 * CHUNK_SIZE);
        let e = a.alloc(4).unwrap();
        assert_eq!(e.len, 4 * CHUNK_SIZE);
        assert_eq!(a.free_bytes(), 0);
        assert_eq!(a.alloc(1), Err(ExtentError::OutOfMemory));
        a.free(e).unwrap();
        assert_eq!(a.free_bytes(), 4 * CHUNK_SIZE);
    }

    #[test]
    fn coalescing_rebuilds_large_runs() {
        let mut a = ExtentAllocator::new(4 * CHUNK_SIZE);
        let e1 = a.alloc(1).unwrap();
        let e2 = a.alloc(1).unwrap();
        let e3 = a.alloc(1).unwrap();
        a.free(e2).unwrap();
        // Fragmented: cannot satisfy a 2-chunk request from the middle hole
        // plus tail without coalescing with the tail run... the tail run is
        // 1 chunk and the hole is 1 chunk, non-adjacent.
        assert_eq!(a.largest_free_run(), CHUNK_SIZE);
        a.free(e1).unwrap();
        assert_eq!(a.largest_free_run(), 2 * CHUNK_SIZE, "e1+e2 coalesced");
        a.free(e3).unwrap();
        assert_eq!(a.largest_free_run(), 4 * CHUNK_SIZE, "fully coalesced");
    }

    #[test]
    fn double_free_rejected() {
        let mut a = ExtentAllocator::new(2 * CHUNK_SIZE);
        let e = a.alloc(1).unwrap();
        a.free(e).unwrap();
        assert_eq!(a.free(e), Err(ExtentError::BadFree));
    }

    #[test]
    fn zero_alloc_rejected() {
        let mut a = ExtentAllocator::new(CHUNK_SIZE);
        assert_eq!(a.alloc(0), Err(ExtentError::ZeroSized));
    }

    #[test]
    fn region_rounds_down_to_chunks() {
        let a = ExtentAllocator::new(3 * CHUNK_SIZE + 12345);
        assert_eq!(a.region_len(), 3 * CHUNK_SIZE);
    }

    mirage_testkit::property! {
        /// No two live allocations ever overlap, and accounting balances.
        fn prop_allocations_disjoint(ops in collection::vec((any::<bool>(), 1u64..5), 1..64)) {
            let mut a = ExtentAllocator::new(32 * CHUNK_SIZE);
            let mut live: Vec<Extent> = Vec::new();
            for (is_alloc, n) in ops {
                if is_alloc || live.is_empty() {
                    if let Ok(e) = a.alloc(n) {
                        live.push(e);
                    }
                } else {
                    let e = live.remove((n as usize) % live.len());
                    a.free(e).unwrap();
                }
                for (i, x) in live.iter().enumerate() {
                    for y in &live[i + 1..] {
                        assert!(!x.overlaps(y));
                    }
                }
                assert_eq!(a.free_bytes() + a.allocated_bytes(), a.region_len());
            }
        }

        /// Freeing everything always restores one maximal run.
        fn prop_full_free_fully_coalesces(sizes in collection::vec(1u64..4, 1..16)) {
            let mut a = ExtentAllocator::new(64 * CHUNK_SIZE);
            let mut live = Vec::new();
            for n in sizes {
                if let Ok(e) = a.alloc(n) { live.push(e); }
            }
            for e in live {
                a.free(e).unwrap();
            }
            assert_eq!(a.largest_free_run(), a.region_len());
        }
    }
}
