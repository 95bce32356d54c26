//! Thread-performance harness (paper Figure 7).
//!
//! Figure 7a creates millions of parallel sleeping threads and measures
//! construction time across four targets; Figure 7b measures timer jitter
//! for 10⁶ parallel sleepers. The targets run *identical* workload logic;
//! they differ only in the heap backing (extent vs malloc, the §3.3
//! ablation) and the hosting environment's growth overheads
//! ([`EnvOverheads`]), exactly as in the paper where the same OCaml binary
//! ran on four platforms.
//!
//! The full 20-million-thread sweep is computed through the
//! [`GcHeap`]/scheduler cost model (constructing 20 M live futures would
//! measure the host allocator, not the model); the same path is
//! cross-validated against the real executor at smaller scales in the
//! `fig07` integration checks.

use mirage_hypervisor::{CostTable, Dur};
use mirage_pvboot::heap::{EnvOverheads, GcHeap, HeapBacking, OBJ_BYTES};
use mirage_testkit::rng::Rng;

/// Heap bytes charged per spawned lightweight thread (closure + timer
/// record + scheduler node; see [`OBJ_BYTES`]).
pub const THREAD_HEAP_BYTES: u64 = 2 * OBJ_BYTES;

/// The Figure 7 targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadTarget {
    /// Mirage on Xen with the extent-allocator heap.
    MirageExtent,
    /// Mirage on Xen with a malloc-backed heap (the ablation).
    MirageMalloc,
    /// The same runtime hosted as a native Linux process.
    LinuxNative,
    /// Hosted in a paravirtualised Linux guest.
    LinuxPv,
}

impl ThreadTarget {
    /// Figure series order.
    pub fn all() -> [ThreadTarget; 4] {
        [
            ThreadTarget::LinuxPv,
            ThreadTarget::LinuxNative,
            ThreadTarget::MirageMalloc,
            ThreadTarget::MirageExtent,
        ]
    }

    /// Series label.
    pub fn label(&self) -> &'static str {
        match self {
            ThreadTarget::MirageExtent => "Mirage (extent)",
            ThreadTarget::MirageMalloc => "Mirage (malloc)",
            ThreadTarget::LinuxNative => "Linux native",
            ThreadTarget::LinuxPv => "Linux PV",
        }
    }

    fn heap(&self, costs: &CostTable) -> GcHeap {
        let region = 1u64 << 34; // 16 GiB virtual region
        match self {
            ThreadTarget::MirageExtent => {
                GcHeap::new(HeapBacking::Extent, EnvOverheads::unikernel(), region)
            }
            ThreadTarget::MirageMalloc => {
                GcHeap::new(HeapBacking::Malloc, EnvOverheads::unikernel(), region)
            }
            ThreadTarget::LinuxNative => {
                GcHeap::new(HeapBacking::Malloc, EnvOverheads::linux_native(costs), region)
            }
            ThreadTarget::LinuxPv => {
                GcHeap::new(HeapBacking::Malloc, EnvOverheads::linux_pv(costs), region)
            }
        }
    }

    /// Per-wakeup overhead outside the runtime: the syscall/timer path a
    /// hosted process crosses on every timer expiry (§4.1.2: the jitter
    /// difference "is due simply to the lack of userspace/kernel boundary
    /// eliding Linux's syscall overhead").
    fn wake_overhead(&self, costs: &CostTable) -> Dur {
        match self {
            ThreadTarget::MirageExtent | ThreadTarget::MirageMalloc => Dur::ZERO,
            ThreadTarget::LinuxNative => costs.syscall + Dur::micros(2),
            ThreadTarget::LinuxPv => costs.syscall + Dur::micros(2) + costs.hypercall * 4,
        }
    }

    /// Scheduler-noise ceiling: preemptive hosts add run-queue delay.
    fn noise_ceiling(&self) -> Dur {
        match self {
            ThreadTarget::MirageExtent | ThreadTarget::MirageMalloc => Dur::micros(5),
            ThreadTarget::LinuxNative => Dur::micros(60),
            ThreadTarget::LinuxPv => Dur::micros(110),
        }
    }
}

/// Figure 7a: virtual time to construct `threads` parallel sleepers.
pub fn construction_time(target: ThreadTarget, threads: u64, costs: &CostTable) -> Dur {
    let mut heap = target.heap(costs);
    let mut total = Dur::ZERO;
    for _ in 0..threads {
        // Spawn = heap-allocate the thread value + scheduler insert.
        total += heap.alloc(THREAD_HEAP_BYTES, true, costs);
        total += costs.thread_switch;
        // Timer registration in the priority queue (log n, amortised).
        total += Dur::nanos(30);
    }
    total
}

/// Figure 7b: wake-up jitter samples for `threads` sleepers waking over a
/// 3-second window. Returns sorted jitter values (for the CDF).
///
/// Jitter sources, all structural: (1) wake bursts serialise through the
/// single run loop at `thread_switch` per poll; (2) hosted targets add the
/// per-wake syscall path; (3) preemptive hosts add seeded run-queue noise
/// up to the target's ceiling.
pub fn jitter_samples(target: ThreadTarget, threads: u64, costs: &CostTable) -> Vec<Dur> {
    jitter_samples_seeded(target, threads, costs, mirage_testkit::test_seed())
}

/// [`jitter_samples`] with an explicit seed: the whole sample set is a
/// pure function of `(target, threads, costs, seed)`.
pub fn jitter_samples_seeded(
    target: ThreadTarget,
    threads: u64,
    costs: &CostTable,
    seed: u64,
) -> Vec<Dur> {
    let mut rng = Rng::for_stream(seed ^ threads, "fig7.jitter");
    // Deadlines uniform over [1s, 4s), quantised to the 100 µs timer
    // resolution a busy wheel exhibits — wakes arrive in bursts.
    let window_ns = 3_000_000_000u64;
    let quantum = 100_000u64;
    let mut buckets: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for _ in 0..threads {
        let t = rng.gen_range(0..window_ns) / quantum;
        *buckets.entry(t).or_insert(0) += 1;
    }
    let mut samples = Vec::with_capacity(threads as usize);
    for (_, count) in buckets {
        // Every thread in the burst is polled in sequence.
        for position in 0..count {
            let serialisation = Dur::nanos(costs.thread_switch.as_nanos() * position);
            let overhead = target.wake_overhead(costs);
            let noise = Dur::nanos(rng.gen_range(0..=target.noise_ceiling().as_nanos()));
            samples.push(serialisation + overhead + noise);
        }
    }
    samples.sort();
    samples
}

/// Percentile over sorted samples.
pub fn percentile(sorted: &[Dur], pct: f64) -> Dur {
    if sorted.is_empty() {
        return Dur::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * pct / 100.0).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> CostTable {
        CostTable::defaults()
    }

    #[test]
    fn figure7a_ordering() {
        let c = costs();
        let n = 2_000_000;
        let t = |target: ThreadTarget| construction_time(target, n, &c);
        assert!(t(ThreadTarget::MirageExtent) < t(ThreadTarget::MirageMalloc));
        assert!(t(ThreadTarget::MirageMalloc) < t(ThreadTarget::LinuxNative));
        assert!(t(ThreadTarget::LinuxNative) < t(ThreadTarget::LinuxPv));
    }

    #[test]
    fn figure7a_magnitudes() {
        // The figure's y-axis: a few seconds for up to 20 M threads.
        let c = costs();
        let t = construction_time(ThreadTarget::LinuxPv, 20_000_000, &c);
        assert!(
            (Dur::secs(1)..Dur::secs(20)).contains(&t),
            "20M threads on the slowest target: {t}"
        );
        let fast = construction_time(ThreadTarget::MirageExtent, 20_000_000, &c);
        assert!(fast < t);
        assert!(fast > Dur::millis(500), "not free either: {fast}");
    }

    #[test]
    fn figure7b_mirage_jitter_is_lower_and_tighter() {
        let c = costs();
        let n = 100_000; // scaled-down CDF; the bench runs 10^6
        let mirage = jitter_samples(ThreadTarget::MirageExtent, n, &c);
        let pv = jitter_samples(ThreadTarget::LinuxPv, n, &c);
        let med_m = percentile(&mirage, 50.0);
        let med_pv = percentile(&pv, 50.0);
        assert!(med_m < med_pv, "median: {med_m} vs {med_pv}");
        let p99_m = percentile(&mirage, 99.0);
        let p99_pv = percentile(&pv, 99.0);
        assert!(p99_m < p99_pv, "tail: {p99_m} vs {p99_pv}");
        // Paper x-axis: jitter below ~0.2 ms.
        assert!(p99_pv < Dur::millis(1), "within the figure's range: {p99_pv}");
    }
}
