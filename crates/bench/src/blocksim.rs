//! Random block-read harness (paper Figure 9): fio-style random reads
//! through the real blkfront ring against the PCIe-SSD disk model, with
//! and without a kernel-style buffer cache.

use mirage_devices::{Backend, DriverDomain, Xenstore};
use mirage_hypervisor::{Dur, Hypervisor, Time};
use mirage_runtime::UnikernelGuest;
use mirage_storage::{BlkDevice, BlockIo, BufferCache};
use mirage_testkit::rng::Rng;

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
                    let cache = BufferCache::new(&rt2, dev, 2048); // 8 MiB cache
                    for _ in 0..reads {
                        let sector = run(rng.gen_range(0..disk_sectors));
                        rt2.charge(costs.syscall * 2 + costs.irq_dispatch);
                        cache.read(sector, block_sectors).await.unwrap();
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
