//! blkfront and the simulated disk (paper §3.4, §4.1.3).
//!
//! "Mirage block devices share the same Ring abstraction as network
//! devices, using the same I/O pages to provide efficient block-level
//! access, with filesystems and caching provided as OCaml libraries"
//! (§3.5.2). The frontend here is deliberately minimal: sector-addressed
//! reads and writes, one page per request, all writes direct — "the only
//! built-in policy being that all writes are guaranteed to be direct". Like
//! the NIC it is written once over `transport::FrontTransport`.
//!
//! The backend's storage is a [`SimulatedDisk`] parameterised by a
//! [`DiskProfile`]; the default profile models the paper's "fast
//! PCI-express SSD storage device" from Figure 9.

use std::collections::HashMap;

use mirage_hypervisor::event::Port;
use mirage_hypervisor::grant::{GrantRef, SharedPage};
use mirage_hypervisor::{DomainEnv, DomainId, Dur};
use mirage_runtime::channel::{self, Receiver, Sender};
use mirage_runtime::{DeviceService, Runtime};

use crate::driver::{Backend, BlkDriver};
use crate::transport::{
    advertise_disk, connect_disk, find_backend, DataBuf, Dir, FrontTransport, Gate, Link,
    Outstanding,
};
use crate::xenstore::Xenstore;

/// Bytes per disk sector.
pub const SECTOR_SIZE: usize = 512;
/// Sectors per request (one 4 KiB page).
pub const MAX_SECTORS_PER_REQ: u16 = 8;
/// Data pages in the frontend pool (bounds queue depth).
pub const BLK_BUFFERS: usize = 32;

/// The physical device: the paper's Figure 9 PCIe SSD, whose latency and
/// bandwidth are constants, plus the faults a test or workload injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskProfile {
    /// Seeded fault plan applied by the backend (`None`: a perfect device).
    pub faults: Option<crate::netem::DiskFaultPlan>,
}

impl DiskProfile {
    /// Fixed per-request service latency (seek/flash overhead + DMA setup).
    pub const LATENCY: Dur = Dur::micros(18);
    /// Sustained transfer bandwidth in bits per second (1.7 GB/s).
    pub const BANDWIDTH_BPS: u64 = 13_600_000_000;

    /// The paper's Figure 9 device: a PCIe SSD peaking near 1.6 GB/s.
    pub fn pcie_ssd() -> DiskProfile {
        DiskProfile { faults: None }
    }

    /// The same device with a fault plan attached.
    pub fn with_faults(mut self, faults: crate::netem::DiskFaultPlan) -> DiskProfile {
        self.faults = Some(faults);
        self
    }

    /// Wire/flash transfer time for `bytes` (the device-occupancy part).
    pub fn transfer_time(bytes: usize) -> Dur {
        let transfer_ns = (bytes as u64 * 8).saturating_mul(1_000_000_000) / Self::BANDWIDTH_BPS;
        Dur::nanos(transfer_ns)
    }

    /// End-to-end service time for one isolated request of `bytes`.
    pub fn service_time(bytes: usize) -> Dur {
        Self::LATENCY + Self::transfer_time(bytes)
    }
}

/// Sparse sector contents: a sector never written reads as zeroes. The
/// one store behind [`SimulatedDisk`] and `storage::block::MemDisk`; each
/// applies its own bounds policy before it gets here.
#[derive(Debug, Default)]
pub struct SectorStore(HashMap<u64, Box<[u8; SECTOR_SIZE]>>);

impl SectorStore {
    fn sector(&self, sector: u64) -> &[u8; SECTOR_SIZE] {
        const UNWRITTEN: [u8; SECTOR_SIZE] = [0; SECTOR_SIZE];
        self.0.get(&sector).map_or(&UNWRITTEN, |block| block)
    }

    /// `count` sectors starting at `sector`.
    pub fn read(&self, sector: u64, count: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(count * SECTOR_SIZE);
        for i in 0..count as u64 {
            out.extend_from_slice(self.sector(sector + i));
        }
        out
    }

    /// Fills `out` — whole sectors — from `sector` on: the read that lands
    /// in a buffer the caller owns (a granted page).
    pub fn read_into(&self, sector: u64, out: &mut [u8]) {
        for (i, chunk) in out.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            chunk.copy_from_slice(self.sector(sector + i as u64));
        }
    }

    /// Overwrites whole sectors starting at `sector` (`data` is a
    /// multiple of [`SECTOR_SIZE`]); a sector written before keeps its box.
    pub fn write(&mut self, sector: u64, data: &[u8]) {
        for (i, chunk) in data.chunks_exact(SECTOR_SIZE).enumerate() {
            let chunk: &[u8; SECTOR_SIZE] = chunk.try_into().expect("a whole sector");
            self.0
                .entry(sector + i as u64)
                .and_modify(|block| **block = *chunk)
                .or_insert_with(|| Box::new(*chunk));
        }
    }
}

/// In-memory sector store with the timing profile attached.
#[derive(Debug)]
pub struct SimulatedDisk {
    profile: DiskProfile,
    sectors: u64,
    data: SectorStore,
}

impl SimulatedDisk {
    /// An empty (all-zero) disk of `sectors` sectors.
    pub fn new(profile: DiskProfile, sectors: u64) -> SimulatedDisk {
        SimulatedDisk {
            profile,
            sectors,
            data: SectorStore::default(),
        }
    }

    /// Device size in sectors.
    pub fn sectors(&self) -> u64 {
        self.sectors
    }

    /// The timing profile.
    pub fn profile(&self) -> DiskProfile {
        self.profile
    }

    /// Reads whole sectors starting at `sector` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not sector-aligned or runs off the disk.
    pub fn read_into(&self, sector: u64, out: &mut [u8]) {
        assert_eq!(out.len() % SECTOR_SIZE, 0, "unaligned read");
        let count = (out.len() / SECTOR_SIZE) as u64;
        assert!(sector + count <= self.sectors, "read past end");
        self.data.read_into(sector, out);
    }

    /// Writes whole sectors starting at `sector`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not sector-aligned or runs off the disk.
    pub fn write(&mut self, sector: u64, data: &[u8]) {
        assert_eq!(data.len() % SECTOR_SIZE, 0, "unaligned write");
        let count = (data.len() / SECTOR_SIZE) as u64;
        assert!(sector + count <= self.sectors, "write past end");
        self.data.write(sector, data);
    }

    /// Sectors that have ever been written (sparse occupancy).
    pub fn written_sectors(&self) -> usize {
        self.data.0.len()
    }
}

/// Block operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlkOp {
    /// Read sectors from the device.
    Read,
    /// Write sectors to the device (always direct, §3.5.2).
    Write,
}

/// A request submitted by the storage stack. It carries its own reply:
/// blkfront keeps `reply` with the request while the backend holds it and
/// sends the completion straight down it.
#[derive(Debug)]
pub struct BlkRequest {
    /// Operation.
    pub op: BlkOp,
    /// Start sector.
    pub sector: u64,
    /// Sector count (reads) — at most [`MAX_SECTORS_PER_REQ`].
    pub count: u16,
    /// Payload for writes (`count * SECTOR_SIZE` bytes).
    pub data: Option<Vec<u8>>,
    /// Where the completion goes; a dropped receiver abandons the request
    /// (it still runs, and its page still comes back).
    pub reply: Sender<BlkCompletion>,
}

/// A completed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlkCompletion {
    /// Whether the backend accepted and executed the request.
    pub ok: bool,
    /// Read payload.
    pub data: Option<Vec<u8>>,
}

/// Stack-facing handle: submit requests, each awaited on its own reply.
pub struct BlkHandle {
    /// Request queue into the driver.
    pub submit: Sender<BlkRequest>,
    /// Device size in sectors.
    pub sectors: u64,
}

impl std::fmt::Debug for BlkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlkHandle({} sectors)", self.sectors)
    }
}

pub(crate) mod wire {
    //! Block request header encoding (the transport names the data page
    //! and carries the token that correlates the completion).

    pub const OP_READ: u8 = 0;
    pub const OP_WRITE: u8 = 1;

    pub fn req(op: u8, sector: u64, count: u16) -> [u8; 11] {
        let mut d = [0u8; 11];
        d[0] = op;
        d[1..9].copy_from_slice(&sector.to_le_bytes());
        d[9..11].copy_from_slice(&count.to_le_bytes());
        d
    }

    pub fn parse_req(d: &[u8]) -> Option<(u8, u64, u16)> {
        if d.len() != 11 {
            return None;
        }
        Some((
            d[0],
            u64::from_le_bytes(d[1..9].try_into().ok()?),
            u16::from_le_bytes(d[9..11].try_into().ok()?),
        ))
    }
}

/// A request out with the backend: its I/O page and where its answer goes.
struct Inflight {
    /// For a read, how many bytes of the page go back to the caller.
    read_bytes: Option<usize>,
    gref: GrantRef,
    page: SharedPage,
    reply: Sender<BlkCompletion>,
}

/// The block frontend ([`DeviceService`]), created through
/// [`Backend::blk`](crate::driver::Backend::blk).
pub(crate) struct Blkif<T> {
    dir: Dir,
    disk_sectors: u64,
    link: Link,
    queue: Option<T>,
    port: Option<Port>,
    /// Whether this pass reaps the queue.
    gate: Gate,
    free_pages: Vec<(GrantRef, SharedPage)>,
    /// Requests out with the backend, by request token.
    inflight: Outstanding<Inflight>,
    /// Requests not yet posted: they wait here for a slot and a page.
    from_stack: Receiver<BlkRequest>,
}

impl<T: FrontTransport> Blkif<T> {
    /// Creates the driver and its stack-facing handle, requesting a virtual
    /// disk of `disk_sectors` sectors from the backend.
    pub(crate) fn create(
        xs: Xenstore,
        name: String,
        disk_sectors: u64,
    ) -> (Box<dyn BlkDriver>, BlkHandle) {
        let (submit_tx, submit_rx) = channel::channel();
        let front = Blkif::<T> {
            dir: Dir {
                xs,
                base: format!("device/{}/{name}", T::BLK_DIR),
            },
            disk_sectors,
            link: Link::Init,
            queue: None,
            port: None,
            gate: Gate::default(),
            free_pages: Vec::new(),
            inflight: Outstanding::default(),
            from_stack: submit_rx,
        };
        let handle = BlkHandle {
            submit: submit_tx,
            sectors: disk_sectors,
        };
        (Box::new(front), handle)
    }

    fn advertise(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let Some(backend) = find_backend(env, &self.dir.xs) else {
            return false;
        };
        self.queue = Some(advertise_disk(env, &self.dir, backend));
        self.dir.write(env, "sectors", self.disk_sectors);
        self.dir.write(env, "state", "initialising");
        self.link = Link::Advertised(backend);
        true
    }

    fn connect(&mut self, env: &mut DomainEnv<'_>, backend: DomainId) -> bool {
        let queue = self.queue.as_mut().expect("advertised");
        let Some(port) = connect_disk(env, &self.dir, backend, queue, BLK_BUFFERS) else {
            return false;
        };
        self.port = Some(port);
        for _ in 0..BLK_BUFFERS {
            let page = SharedPage::new();
            self.free_pages
                .push((env.grant(backend, page.clone(), true), page));
        }
        self.dir.write(env, "state", "connected");
        env.observe(&format!("connected:{}", self.dir.base));
        self.link = Link::Connected;
        true
    }

    fn pass(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let mut progressed = false;
        let port = self.port.expect("connected");
        let queue = self.queue.as_mut().expect("connected");

        // Completions, each straight to its waiter: for a read the device
        // filled the data page first. A waiter that gave up drops the data.
        // They come only through a channel that fired (or a last arm that
        // raced).
        let fired = self.gate.open(env, port);
        while let Some(done) = fired.then(|| queue.reap()).flatten() {
            let Some(req) = self.inflight.remove(done.token) else {
                continue;
            };
            let data = req
                .read_bytes
                .filter(|_| done.ok)
                .map(|n| req.page.read(|b| b[..n].to_vec()));
            let _ = req.reply.send(BlkCompletion { ok: done.ok, data });
            self.free_pages.push((req.gref, req.page));
            progressed = true;
        }

        // Submissions while a slot and a page are free, published once
        // with at most one doorbell per pass; the rest wait in the submit
        // channel.
        while queue.room() && !self.free_pages.is_empty() {
            let Some(req) = self.from_stack.try_recv() else {
                break;
            };
            // A write carries exactly its sectors: the page is recycled, so
            // whatever a shorter payload left uncovered would be another
            // request's bytes.
            let bytes = req.count as usize * SECTOR_SIZE;
            let short = req.op == BlkOp::Write && req.data.as_ref().map(Vec::len) != Some(bytes);
            if req.count > MAX_SECTORS_PER_REQ || req.count == 0 || short {
                let _ = req.reply.send(BlkCompletion {
                    ok: false,
                    data: None,
                });
                continue;
            }
            let (gref, page) = self.free_pages.pop().expect("checked above");
            let op = match req.op {
                BlkOp::Read => wire::OP_READ,
                BlkOp::Write => {
                    let data = req.data.as_deref().expect("checked above");
                    page.write(|b| b[..bytes].copy_from_slice(data));
                    // Direct write: one copy into the I/O page.
                    let c = env.costs().copy(bytes);
                    env.consume(c);
                    wire::OP_WRITE
                }
            };
            let is_read = req.op == BlkOp::Read;
            let header = wire::req(op, req.sector, req.count);
            let token = queue.post(&header, DataBuf::page(gref, bytes, is_read));
            let inflight = Inflight {
                read_bytes: is_read.then_some(bytes),
                gref,
                page,
                reply: req.reply,
            };
            self.inflight.insert(token, inflight);
            progressed = true;
        }
        if queue.publish() {
            let _ = env.evtchn_notify(port);
        }
        progressed |= self.gate.close(|| queue.arm());
        progressed
    }
}

impl<T: FrontTransport> DeviceService for Blkif<T> {
    fn service(&mut self, env: &mut DomainEnv<'_>, _rt: &Runtime) -> bool {
        match self.link {
            Link::Init => self.advertise(env),
            Link::Advertised(backend) => {
                self.connect(env, backend) && {
                    self.pass(env);
                    true
                }
            }
            Link::Connected => self.pass(env),
        }
    }
}

impl<T: FrontTransport> BlkDriver for Blkif<T> {
    fn backend(&self) -> Backend {
        T::BACKEND
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_round_trips_sectors() {
        let mut disk = SimulatedDisk::new(DiskProfile::pcie_ssd(), 1024);
        let data = vec![0xAB; 2 * SECTOR_SIZE];
        disk.write(10, &data);
        let mut out = vec![0x11; 3 * SECTOR_SIZE];
        disk.read_into(10, &mut out);
        assert_eq!(out[..2 * SECTOR_SIZE], data[..]);
        assert_eq!(
            out[2 * SECTOR_SIZE..],
            [0u8; SECTOR_SIZE],
            "unwritten is zero"
        );
        assert_eq!(disk.written_sectors(), 2);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn disk_bounds_checked() {
        let disk = SimulatedDisk::new(DiskProfile::pcie_ssd(), 8);
        disk.read_into(7, &mut [0; 2 * SECTOR_SIZE]);
    }

    #[test]
    fn service_time_saturates_at_bandwidth() {
        let small = DiskProfile::service_time(1024);
        let large = DiskProfile::service_time(4 * 1024 * 1024);
        let bandwidth = DiskProfile::BANDWIDTH_BPS as f64;
        // Small requests are latency-dominated; large, bandwidth-dominated.
        assert!(small < Dur::micros(25));
        let large_secs = large.as_secs_f64();
        let implied_bw = (4.0 * 1024.0 * 1024.0 * 8.0) / large_secs;
        assert!(
            (implied_bw - bandwidth).abs() < 0.05 * bandwidth,
            "large transfers run at device bandwidth"
        );
    }

    #[test]
    fn wire_round_trip() {
        let d = wire::req(wire::OP_WRITE, 1000, 8);
        assert_eq!(wire::parse_req(&d), Some((wire::OP_WRITE, 1000, 8)));
        assert_eq!(wire::parse_req(&d[..10]), None, "length-discriminated");
        assert_eq!(wire::parse_req(&[d.as_slice(), &[0]].concat()), None);
    }
}
