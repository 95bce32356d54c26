//! The asynchronous block layer.
//!
//! "Mirage block devices share the same Ring abstraction as network
//! devices … This gives control to the application over caching policy
//! rather than providing only one default cache policy" (paper §3.5.2).
//! [`BlockIo`] is the policy-free interface — every operation goes to the
//! device, writes are always direct — and a caching policy is a wrapper
//! the application links over it.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use mirage_testkit::sync::Mutex;

use mirage_devices::blk::{BlkCompletion, BlkHandle, BlkOp, BlkRequest, SectorStore, SECTOR_SIZE};
use mirage_runtime::channel::{self, Receiver, Sender};
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

/// The end of `count` sectors from `sector` on a device of `sectors`:
/// [`BlockError::OutOfRange`] if they pass its end — or `u64::MAX`.
pub(crate) fn sector_end(sector: u64, count: u64, sectors: u64) -> Result<u64, BlockError> {
    sector
        .checked_add(count)
        .filter(|&end| end <= sectors)
        .ok_or(BlockError::OutOfRange)
}

/// Sectors in a write of `data`, which must be whole sectors.
pub(crate) fn whole_sectors(data: &[u8]) -> Result<u64, BlockError> {
    match data.len() % SECTOR_SIZE {
        0 => Ok((data.len() / SECTOR_SIZE) as u64),
        _ => Err(BlockError::Unaligned),
    }
}

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
            sector_end(sector, count.into(), this.sectors)?;
            Ok(this.data.lock().read(sector, count as usize))
        })
    }

    fn write(&self, sector: u64, data: Vec<u8>) -> BoxFuture<Result<(), BlockError>> {
        let this = self.clone();
        Box::pin(async move {
            sector_end(sector, whole_sectors(&data)?, this.sectors)?;
            this.data.lock().write(sector, &data);
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------------

/// [`BlockIo`] over a blkfront ring ([`BlkHandle`]): the Xen-backed device.
///
/// Requests larger than one page are split into page-sized ring requests
/// and completed together, exactly as blkfront segments large I/O. Each
/// ring request carries the channel its completion comes back on, and
/// blkfront keeps it with the request until the backend answers: nothing
/// here remembers a request in flight.
#[derive(Clone)]
pub struct BlkDevice {
    sectors: u64,
    submit: Sender<BlkRequest>,
}

impl std::fmt::Debug for BlkDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlkDevice({} sectors)", self.sectors)
    }
}

impl BlkDevice {
    /// Wraps a blkfront handle. Completions come back on each request's
    /// own reply channel, so nothing runs on the runtime: `_rt` is unused.
    pub fn new(_rt: &Runtime, handle: BlkHandle) -> BlkDevice {
        BlkDevice {
            sectors: handle.sectors,
            submit: handle.submit,
        }
    }

    /// Fires a request without waiting; returns the receiver to await —
    /// chunked reads/writes pipeline through the ring (the device services
    /// them back-to-back instead of one latency per chunk).
    fn fire_request(
        &self,
        op: BlkOp,
        sector: u64,
        count: u16,
        data: Option<Vec<u8>>,
    ) -> Result<Receiver<BlkCompletion>, BlockError> {
        let (reply, done) = channel::channel();
        let req = BlkRequest {
            op,
            sector,
            count,
            data,
            reply,
        };
        self.submit.send(req).map_err(|_| BlockError::Io)?;
        Ok(done)
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
        let this = self.clone();
        Box::pin(async move {
            sector_end(sector, count.into(), this.sectors)?;
            // Issue every chunk up front (pipelined through the ring),
            // then collect completions in order.
            let mut pending = Vec::new();
            let mut at = sector;
            let mut remaining = count;
            while remaining > 0 {
                let n = remaining.min(SECTORS_PER_REQ) as u16;
                pending.push(this.fire_request(BlkOp::Read, at, n, None)?);
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
        let this = self.clone();
        Box::pin(async move {
            sector_end(sector, whole_sectors(&data)?, this.sectors)?;
            let fire = |at: u64, chunk: Vec<u8>| {
                let n = (chunk.len() / SECTOR_SIZE) as u16;
                this.fire_request(BlkOp::Write, at, n, Some(chunk))
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
    use mirage_devices::blk::BLK_BUFFERS;
    use mirage_devices::{Backend, DriverDomain, Xenstore};
    use mirage_hypervisor::{Dur, Hypervisor, Time};
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

    /// Runs `f` in a guest over a blkfront of `sectors` on `backend`,
    /// beside a driver domain.
    fn over_blkfront<F, Fut>(backend: Backend, sectors: u64, f: F)
    where
        F: FnOnce(Runtime, BlkHandle) -> Fut + Send + 'static,
        Fut: Future<Output = i64> + Send + 'static,
    {
        let xs = Xenstore::new();
        let mut hv = Hypervisor::new();
        hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));
        let (front, handle) = backend.blk(xs, "vda", sectors);
        let mut guest = UnikernelGuest::new(move |_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move { f(rt2, handle).await })
        });
        guest.add_device(front);
        let dom = hv.create_domain("guest", 64, Box::new(guest));
        hv.run_until(Time::ZERO + Dur::secs(60));
        assert_eq!(hv.exit_code(dom), Some(0), "[{backend}]");
    }

    /// Every range that passes the end of `dev` — or `u64::MAX` — is
    /// refused, for reads and writes alike.
    async fn refuses_out_of_range(dev: &dyn BlockIo) {
        let end = dev.sector_count();
        for (sector, count) in [(u64::MAX, 1), (u64::MAX - 1, 2), (end, 1), (end - 1, 2)] {
            let read = dev.read(sector, count).await;
            assert_eq!(
                read,
                Err(BlockError::OutOfRange),
                "read {count} at {sector}"
            );
            let data = vec![0; count as usize * SECTOR_SIZE];
            assert_eq!(
                dev.write(sector, data).await,
                Err(BlockError::OutOfRange),
                "write {count} at {sector}"
            );
        }
    }

    #[test]
    fn out_of_range_sectors_are_out_of_range_not_panics() {
        run_async_test(|_rt| async move {
            refuses_out_of_range(&MemDisk::new(8)).await;
            0
        });
        for backend in Backend::ALL {
            over_blkfront(backend, 64, |rt, handle| async move {
                refuses_out_of_range(&BlkDevice::new(&rt, handle)).await;
                0
            });
        }
    }

    #[test]
    fn a_blk_device_spawns_no_task() {
        for backend in Backend::ALL {
            over_blkfront(backend, 64, |rt, handle| async move {
                let before = rt.live_tasks();
                let dev = BlkDevice::new(&rt, handle);
                assert_eq!(rt.live_tasks(), before, "nothing runs beside the caller");
                dev.write(8, vec![0xA5; SECTOR_SIZE]).await.unwrap();
                assert_eq!(dev.read(8, 1).await, Ok(vec![0xA5; SECTOR_SIZE]));
                0
            });
        }
    }

    #[test]
    fn a_write_longer_than_the_page_pool_round_trips() {
        // More pages than blkfront has: requests wait in the submit
        // channel for a page to come back.
        const PAGES: usize = BLK_BUFFERS + 8;
        for backend in Backend::ALL {
            over_blkfront(backend, 1024, |rt, handle| async move {
                let dev = BlkDevice::new(&rt, handle);
                let data: Vec<u8> = (0..PAGES * 4096).map(|i| (i / 509) as u8).collect();
                dev.write(16, data.clone()).await.unwrap();
                let back = dev.read(16, (PAGES * 8) as u32).await.unwrap();
                assert!(back == data, "byte-exact after {PAGES} pages");
                0
            });
        }
    }

    #[test]
    fn abandoned_reads_give_back_every_page() {
        for backend in Backend::ALL {
            over_blkfront(backend, 1024, |rt, handle| async move {
                let dev = BlkDevice::new(&rt, handle);
                let mut reads: Vec<_> = (0..BLK_BUFFERS as u64 + 8)
                    .map(|i| dev.read(i * 8, 8))
                    .collect();
                // One poll submits each request; none can have completed.
                std::future::poll_fn(|cx| {
                    for read in &mut reads {
                        assert!(read.as_mut().poll(cx).is_pending());
                    }
                    std::task::Poll::Ready(())
                })
                .await;
                drop(reads);
                // Needs every page the abandoned requests held, and one more.
                let sectors = (BLK_BUFFERS as u32 + 1) * 8;
                let back = dev.read(0, sectors).await.unwrap();
                assert_eq!(back.len(), sectors as usize * SECTOR_SIZE);
                0
            });
        }
    }
}
