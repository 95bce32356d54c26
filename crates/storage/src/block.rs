//! The asynchronous block layer.
//!
//! "Mirage block devices share the same Ring abstraction as network
//! devices … This gives control to the application over caching policy
//! rather than providing only one default cache policy" (paper §3.5.2).
//! [`BlockIo`] is the policy-free interface — every operation goes to the
//! device, writes are always direct — and the caching decisions live in
//! separate wrappers ([`crate::cache`]).

use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use mirage_testkit::sync::Mutex;

use mirage_devices::blk::{BlkCompletion, BlkHandle, BlkOp, BlkRequest, SectorStore, SECTOR_SIZE};
use mirage_runtime::channel::{self, Sender};
use mirage_runtime::Runtime;

/// Boxed future used by the object-safe [`BlockIo`] trait.
pub type BoxFuture<T> = Pin<Box<dyn Future<Output = T> + Send>>;

/// Errors from block operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// The request ran past the end of the device.
    OutOfRange,
    /// The backend rejected or failed the request.
    Io,
    /// Writes must be whole sectors.
    Unaligned,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            BlockError::OutOfRange => "request past end of device",
            BlockError::Io => "backend i/o failure",
            BlockError::Unaligned => "data is not sector-aligned",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for BlockError {}

/// A sector-addressed block device. All writes are direct (persisted when
/// the future resolves) — the paper's "only built-in policy".
pub trait BlockIo: Send + Sync {
    /// Device size in sectors.
    fn sector_count(&self) -> u64;

    /// Reads `count` sectors starting at `sector`.
    fn read(&self, sector: u64, count: u32) -> BoxFuture<Result<Vec<u8>, BlockError>>;

    /// Writes whole sectors starting at `sector`.
    fn write(&self, sector: u64, data: Vec<u8>) -> BoxFuture<Result<(), BlockError>>;
}

// ---------------------------------------------------------------------------

/// An in-memory block device for unit tests and RAM-disk appliances.
#[derive(Clone)]
pub struct MemDisk {
    sectors: u64,
    data: Arc<Mutex<SectorStore>>,
}

impl std::fmt::Debug for MemDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemDisk({} sectors)", self.sectors)
    }
}

impl MemDisk {
    /// A zeroed RAM disk of `sectors` sectors.
    pub fn new(sectors: u64) -> MemDisk {
        MemDisk {
            sectors,
            data: Arc::new(Mutex::new(SectorStore::default())),
        }
    }

    /// Overwrites a byte range without sector alignment (test fixture
    /// shortcut and fault injection).
    pub fn patch(&self, offset: u64, bytes: &[u8]) {
        let mut data = self.data.lock();
        let first = offset / SECTOR_SIZE as u64;
        let within = (offset % SECTOR_SIZE as u64) as usize;
        let mut span = data.read(first, (within + bytes.len()).div_ceil(SECTOR_SIZE));
        span[within..within + bytes.len()].copy_from_slice(bytes);
        data.write(first, &span);
    }
}

impl BlockIo for MemDisk {
    fn sector_count(&self) -> u64 {
        self.sectors
    }

    fn read(&self, sector: u64, count: u32) -> BoxFuture<Result<Vec<u8>, BlockError>> {
        let this = self.clone();
        Box::pin(async move {
            if sector + count as u64 > this.sectors {
                return Err(BlockError::OutOfRange);
            }
            Ok(this.data.lock().read(sector, count as usize))
        })
    }

    fn write(&self, sector: u64, data: Vec<u8>) -> BoxFuture<Result<(), BlockError>> {
        let this = self.clone();
        Box::pin(async move {
            if !data.len().is_multiple_of(SECTOR_SIZE) {
                return Err(BlockError::Unaligned);
            }
            let count = (data.len() / SECTOR_SIZE) as u64;
            if sector + count > this.sectors {
                return Err(BlockError::OutOfRange);
            }
            this.data.lock().write(sector, &data);
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------------

struct BlkShared {
    waiters: Mutex<HashMap<u64, Sender<BlkCompletion>>>,
    next_id: Mutex<u64>,
    submit: Sender<BlkRequest>,
}

/// [`BlockIo`] over a blkfront ring ([`BlkHandle`]): the Xen-backed device.
///
/// Requests larger than one page are split into page-sized ring requests
/// and completed together, exactly as blkfront segments large I/O.
#[derive(Clone)]
pub struct BlkDevice {
    sectors: u64,
    shared: Arc<BlkShared>,
}

impl std::fmt::Debug for BlkDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlkDevice({} sectors)", self.sectors)
    }
}

impl BlkDevice {
    /// Wraps a blkfront handle, spawning the completion-demux thread.
    pub fn new(rt: &Runtime, handle: BlkHandle) -> BlkDevice {
        let sectors = handle.sectors;
        let shared = Arc::new(BlkShared {
            waiters: Mutex::new(HashMap::new()),
            next_id: Mutex::new(1),
            submit: handle.submit,
        });
        let shared2 = Arc::clone(&shared);
        let mut completions = handle.complete;
        rt.spawn(async move {
            while let Ok(done) = completions.recv().await {
                let waiter = shared2.waiters.lock().remove(&done.id);
                if let Some(tx) = waiter {
                    let _ = tx.send(done);
                }
            }
        });
        BlkDevice { sectors, shared }
    }

    /// Fires a request without waiting; returns the receiver to await —
    /// chunked reads/writes pipeline through the ring (the device services
    /// them back-to-back instead of one latency per chunk).
    fn fire_request(
        shared: &Arc<BlkShared>,
        op: BlkOp,
        sector: u64,
        count: u16,
        data: Option<Vec<u8>>,
    ) -> Result<mirage_runtime::channel::Receiver<BlkCompletion>, BlockError> {
        let id = {
            let mut next = shared.next_id.lock();
            let id = *next;
            *next += 1;
            id
        };
        let (tx, rx) = channel::channel();
        shared.waiters.lock().insert(id, tx);
        shared
            .submit
            .send(BlkRequest {
                id,
                op,
                sector,
                count,
                data,
            })
            .map_err(|_| BlockError::Io)?;
        Ok(rx)
    }
}

/// Sectors per ring request (one 4 KiB page).
const SECTORS_PER_REQ: u32 = 8;
const REQ_BYTES: usize = SECTORS_PER_REQ as usize * SECTOR_SIZE;

impl BlockIo for BlkDevice {
    fn sector_count(&self) -> u64 {
        self.sectors
    }

    fn read(&self, sector: u64, count: u32) -> BoxFuture<Result<Vec<u8>, BlockError>> {
        let shared = Arc::clone(&self.shared);
        let sectors = self.sectors;
        Box::pin(async move {
            if sector + count as u64 > sectors {
                return Err(BlockError::OutOfRange);
            }
            // Issue every chunk up front (pipelined through the ring),
            // then collect completions in order.
            let mut pending = Vec::new();
            let mut at = sector;
            let mut remaining = count;
            while remaining > 0 {
                let n = remaining.min(SECTORS_PER_REQ) as u16;
                pending.push(Self::fire_request(&shared, BlkOp::Read, at, n, None)?);
                at += n as u64;
                remaining -= n as u32;
            }
            let mut out = Vec::new();
            for mut rx in pending {
                let done = rx.recv().await.map_err(|_| BlockError::Io)?;
                if !done.ok {
                    return Err(BlockError::Io);
                }
                let data = done.data.ok_or(BlockError::Io)?;
                if out.is_empty() {
                    // A single-page read is its completion's buffer.
                    out = data;
                    out.reserve((count as usize * SECTOR_SIZE).saturating_sub(out.len()));
                } else {
                    out.extend(data);
                }
            }
            Ok(out)
        })
    }

    fn write(&self, sector: u64, data: Vec<u8>) -> BoxFuture<Result<(), BlockError>> {
        let shared = Arc::clone(&self.shared);
        let sectors = self.sectors;
        Box::pin(async move {
            if !data.len().is_multiple_of(SECTOR_SIZE) {
                return Err(BlockError::Unaligned);
            }
            let count = (data.len() / SECTOR_SIZE) as u64;
            if sector + count > sectors {
                return Err(BlockError::OutOfRange);
            }
            let fire = |at: u64, chunk: Vec<u8>| {
                let n = (chunk.len() / SECTOR_SIZE) as u16;
                Self::fire_request(&shared, BlkOp::Write, at, n, Some(chunk))
            };
            let mut pending = Vec::new();
            if (1..=REQ_BYTES).contains(&data.len()) {
                // A single-page write is its request's buffer.
                pending.push(fire(sector, data)?);
            } else {
                for (i, chunk) in data.chunks(REQ_BYTES).enumerate() {
                    let at = sector + i as u64 * SECTORS_PER_REQ as u64;
                    pending.push(fire(at, chunk.to_vec())?);
                }
            }
            for mut rx in pending {
                let done = rx.recv().await.map_err(|_| BlockError::Io)?;
                if !done.ok {
                    return Err(BlockError::Io);
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_hypervisor::Hypervisor;
    use mirage_runtime::UnikernelGuest;

    fn run_async_test<F, Fut>(f: F)
    where
        F: FnOnce(Runtime) -> Fut + Send + 'static,
        Fut: Future<Output = i64> + Send + 'static,
    {
        let guest = UnikernelGuest::new(move |_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move { f(rt2.clone()).await })
        });
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain("t", 64, Box::new(guest));
        hv.run();
        assert_eq!(hv.exit_code(dom), Some(0));
    }

    #[test]
    fn memdisk_read_write_round_trip() {
        run_async_test(|_rt| async move {
            let disk = MemDisk::new(128);
            let data = vec![7u8; 3 * SECTOR_SIZE];
            disk.write(10, data.clone()).await.unwrap();
            assert_eq!(disk.read(10, 3).await.unwrap(), data);
            assert_eq!(
                disk.read(0, 1).await.unwrap(),
                vec![0u8; SECTOR_SIZE],
                "untouched sectors read zero"
            );
            0
        });
    }

    #[test]
    fn memdisk_bounds_and_alignment() {
        run_async_test(|_rt| async move {
            let disk = MemDisk::new(8);
            assert_eq!(disk.read(7, 2).await, Err(BlockError::OutOfRange));
            assert_eq!(
                disk.write(0, vec![1u8; 100]).await,
                Err(BlockError::Unaligned)
            );
            0
        });
    }

    #[test]
    fn patch_edits_arbitrary_ranges() {
        run_async_test(|_rt| async move {
            let disk = MemDisk::new(8);
            disk.patch(SECTOR_SIZE as u64 - 2, b"abcd");
            let s0 = disk.read(0, 1).await.unwrap();
            let s1 = disk.read(1, 1).await.unwrap();
            assert_eq!(&s0[SECTOR_SIZE - 2..], b"ab");
            assert_eq!(&s1[..2], b"cd");
            0
        });
    }
}
