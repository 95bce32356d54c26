//! Random block-read harness (paper Figure 9): fio-style random reads
//! through the real blkfront ring against the PCIe-SSD disk model, with
//! and without a kernel-style buffer cache. The cache is the
//! conventional side's, so it lives here, not in the Mirage storage
//! library: an appliance that wants a data cache links its own.

use mirage_devices::blk::SECTOR_SIZE;
use mirage_devices::{Backend, DriverDomain, Xenstore};
use mirage_hypervisor::{Dur, Hypervisor, Time};
use mirage_runtime::{Runtime, UnikernelGuest};
use mirage_storage::{BlkDevice, BlockError, BlockIo};
use mirage_testkit::rng::Rng;

/// Sectors per cache page (4 KiB).
const SECTORS_PER_PAGE: u64 = 8;

/// The kernel page cache of the "Linux PV, buffered" series, reads only:
/// an LRU of 4 KiB pages; on any miss in a read's span the whole span is
/// read ahead in one device request; each page a read touches pays
/// [`Self::PER_PAGE_OVERHEAD`] before it is copied out.
struct PageCache<B> {
    dev: B,
    /// Cached pages and their bytes, least recently used first.
    lru: Vec<(u64, Vec<u8>)>,
    capacity: usize,
}

impl<B: BlockIo> PageCache<B> {
    /// Per-page management cost of the kernel buffered path (lookup,
    /// locking, LRU upkeep and the copy out), calibrated to the paper's
    /// measured ~300 MB/s plateau: 4096 B / 300 MB/s ≈ 13 µs per page.
    const PER_PAGE_OVERHEAD: Dur = Dur::micros(13);

    fn find(&self, page: u64) -> Option<usize> {
        self.lru.iter().position(|(p, _)| *p == page)
    }

    /// Makes `page` the most recently used, holding `data`: its old
    /// entry goes, or when the cache is full the least recently used one.
    fn insert(&mut self, page: u64, data: Vec<u8>) {
        let full = self.lru.len() >= self.capacity;
        if let Some(at) = self.find(page).or(full.then_some(0)) {
            self.lru.remove(at);
        }
        self.lru.push((page, data));
    }

    /// Reads `count` (at least one) sectors from `sector`, charging `rt`.
    async fn read(&mut self, rt: &Runtime, sector: u64, count: u32) -> Result<Vec<u8>, BlockError> {
        let end = sector + u64::from(count);
        let (first, last) = (sector / SECTORS_PER_PAGE, (end - 1) / SECTORS_PER_PAGE);
        // A span that fits stays cached until it is copied out.
        let span = last - first + 1;
        assert!(span as usize <= self.capacity, "a read spans more pages than the cache holds");
        if (first..=last).any(|p| self.find(p).is_none()) {
            let span_sectors = (span * SECTORS_PER_PAGE) as u32;
            let data = self.dev.read(first * SECTORS_PER_PAGE, span_sectors).await?;
            let page_bytes = SECTORS_PER_PAGE as usize * SECTOR_SIZE;
            for (page, chunk) in (first..).zip(data.chunks(page_bytes)) {
                self.insert(page, chunk.to_vec());
            }
        }
        let mut assembled = Vec::with_capacity(count as usize * SECTOR_SIZE);
        for page in first..=last {
            rt.charge(Self::PER_PAGE_OVERHEAD);
            let (_, data) = self.lru.remove(self.find(page).expect("the span is cached"));
            let start = page * SECTORS_PER_PAGE;
            let from = (sector.max(start) - start) as usize * SECTOR_SIZE;
            let to = (end.min(start + SECTORS_PER_PAGE) - start) as usize * SECTOR_SIZE;
            assembled.extend_from_slice(&data[from..to]);
            self.lru.push((page, data));
        }
        Ok(assembled)
    }
}

/// Figure 9 series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockTarget {
    /// Mirage: direct I/O over blkfront, library-managed buffering only.
    MirageDirect,
    /// Linux PV with `O_DIRECT`: same direct path plus the syscall tax.
    LinuxDirect,
    /// Linux PV through the kernel buffer cache.
    LinuxBuffered,
}

impl BlockTarget {
    /// Figure series order.
    pub fn all() -> [BlockTarget; 3] {
        [
            BlockTarget::MirageDirect,
            BlockTarget::LinuxDirect,
            BlockTarget::LinuxBuffered,
        ]
    }

    /// Series label.
    pub fn label(&self) -> &'static str {
        match self {
            BlockTarget::MirageDirect => "Mirage",
            BlockTarget::LinuxDirect => "Linux PV, direct I/O",
            BlockTarget::LinuxBuffered => "Linux PV, buffered I/O",
        }
    }
}

/// Runs random reads of `block_bytes` each until `total_bytes` are read;
/// returns throughput in MiB/s of virtual time.
pub fn random_read_throughput(target: BlockTarget, block_bytes: usize, total_bytes: usize) -> f64 {
    random_read_throughput_seeded(target, block_bytes, total_bytes, mirage_testkit::test_seed())
}

/// [`random_read_throughput`] with an explicit seed for the read-offset
/// stream: the reported throughput is a pure function of the arguments.
pub fn random_read_throughput_seeded(
    target: BlockTarget,
    block_bytes: usize,
    total_bytes: usize,
    seed: u64,
) -> f64 {
    const SECTOR: usize = mirage_devices::blk::SECTOR_SIZE;
    let disk_sectors: u64 = 1 << 19; // 256 MiB device
    let block_sectors = (block_bytes / SECTOR).max(1) as u32;

    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    let (front, handle) = Backend::XenRing.blk(xs.clone(), "vda", disk_sectors);
    let mut guest = UnikernelGuest::new(move |_env, rt| {
        let rt2 = rt.clone();
        rt.spawn(async move {
            let dev = BlkDevice::new(&rt2, handle);
            let costs = rt2.costs();
            let reads = (total_bytes / (block_sectors as usize * SECTOR)).max(1);
            let mut rng = Rng::for_stream(seed, "fig9.offsets");
            let run = |sector: u64| sector.min(disk_sectors - block_sectors as u64);
            match target {
                BlockTarget::MirageDirect | BlockTarget::LinuxDirect => {
                    for _ in 0..reads {
                        let sector = run(rng.gen_range(0..disk_sectors));
                        if target == BlockTarget::LinuxDirect {
                            // pread(2) + io completion wakeup.
                            rt2.charge(costs.syscall * 2 + costs.irq_dispatch);
                        }
                        dev.read(sector, block_sectors).await.unwrap();
                    }
                }
                BlockTarget::LinuxBuffered => {
                    let (lru, capacity) = (Vec::new(), 2048); // 8 MiB cache
                    let mut cache = PageCache { dev, lru, capacity };
                    for _ in 0..reads {
                        let sector = run(rng.gen_range(0..disk_sectors));
                        rt2.charge(costs.syscall * 2 + costs.irq_dispatch);
                        cache.read(&rt2, sector, block_sectors).await.unwrap();
                    }
                }
            }
            0i64
        })
    });
    guest.add_device(front);
    let dom = hv.create_domain("fio", 128, Box::new(guest));

    let t0 = hv.now();
    hv.set_step_budget(200_000_000);
    hv.run_until(Time::ZERO + Dur::secs(3600));
    assert_eq!(hv.exit_code(dom), Some(0), "all reads completed");
    let elapsed = hv.now().saturating_since(t0);
    total_bytes as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64()
}

/// The Figure 9 block-size sweep (KiB).
pub const FIG9_BLOCK_SIZES_KIB: [usize; 13] =
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_storage::MemDisk;

    /// Runs `f` in a guest over a page cache of `capacity` pages on `disk`.
    fn with_cache<F, Fut>(disk: &MemDisk, capacity: usize, f: F)
    where
        F: FnOnce(PageCache<MemDisk>, Runtime) -> Fut + Send + 'static,
        Fut: std::future::Future<Output = ()> + Send + 'static,
    {
        let dev = disk.clone();
        let guest = UnikernelGuest::new(move |_env, rt| {
            let cache = PageCache {
                dev,
                lru: Vec::new(),
                capacity,
            };
            let rt2 = rt.clone();
            rt.spawn(async move {
                f(cache, rt2).await;
                0i64
            })
        });
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain("t", 64, Box::new(guest));
        hv.run();
        assert_eq!(hv.exit_code(dom), Some(0));
    }

    /// The sectors of page `page`, as `(sector, count)`.
    fn page(page: u64) -> (u64, u32) {
        (page * SECTORS_PER_PAGE, SECTORS_PER_PAGE as u32)
    }

    #[test]
    fn a_cached_page_is_read_from_the_cache() {
        let disk = MemDisk::new(64);
        let under = disk.clone();
        with_cache(&disk, 16, |mut cache, rt| async move {
            let before = cache.read(&rt, 0, 8).await.unwrap();
            under.patch(0, b"changed");
            assert_eq!(cache.read(&rt, 0, 8).await.unwrap(), before, "a hit");
        });
    }

    #[test]
    fn the_least_recently_used_page_is_evicted() {
        let disk = MemDisk::new(64);
        let under = disk.clone();
        with_cache(&disk, 2, |mut cache, rt| async move {
            for p in 0..3 {
                let (sector, count) = page(p);
                cache.read(&rt, sector, count).await.unwrap();
            }
            let at = |p: u64| p * SECTORS_PER_PAGE * SECTOR_SIZE as u64;
            under.patch(at(0), b"zero");
            under.patch(at(2), b"two");
            let (sector, count) = page(0);
            let zero = cache.read(&rt, sector, count).await.unwrap();
            assert_eq!(&zero[..4], b"zero", "page 0 was evicted and is read anew");
            let (sector, count) = page(2);
            let two = cache.read(&rt, sector, count).await.unwrap();
            assert_eq!(two[..3], [0; 3], "page 2 is still cached");
        });
    }

    #[test]
    fn a_read_across_a_page_boundary_assembles_its_sectors() {
        let disk = MemDisk::new(64);
        let pattern: Vec<u8> = (0..16u8).flat_map(|s| [s; SECTOR_SIZE]).collect();
        disk.patch(0, &pattern);
        with_cache(&disk, 16, move |mut cache, rt| async move {
            let got = cache.read(&rt, 5, 6).await.unwrap();
            assert_eq!(got, pattern[5 * SECTOR_SIZE..11 * SECTOR_SIZE]);
        });
    }

    #[test]
    fn direct_paths_converge_and_buffered_plateaus() {
        // Mid-size blocks: direct Mirage ≈ direct Linux ≫ buffered.
        let block = 256 * 1024;
        let total = 8 << 20;
        let mirage = random_read_throughput(BlockTarget::MirageDirect, block, total);
        let ldirect = random_read_throughput(BlockTarget::LinuxDirect, block, total);
        let buffered = random_read_throughput(BlockTarget::LinuxBuffered, block, total);
        let ratio = mirage / ldirect;
        assert!(
            (0.9..1.15).contains(&ratio),
            "direct paths 'effectively the same' (§4.1.3): {mirage:.0} vs {ldirect:.0}"
        );
        assert!(
            buffered < mirage / 2.0,
            "buffer cache plateau: {buffered:.0} vs {mirage:.0} MiB/s"
        );
    }

    #[test]
    fn large_blocks_approach_device_bandwidth() {
        let t = random_read_throughput(BlockTarget::MirageDirect, 2 << 20, 16 << 20);
        // Device model: 1.7 GB/s ≈ 1620 MiB/s.
        assert!(
            (1_000.0..1_700.0).contains(&t),
            "{t:.0} MiB/s at 2 MiB blocks"
        );
    }

    #[test]
    fn small_blocks_are_latency_bound() {
        let t = random_read_throughput(BlockTarget::MirageDirect, 4096, 2 << 20);
        assert!(t < 400.0, "4 KiB random reads nowhere near bandwidth: {t:.0}");
    }
}
