//! Figure 7 — thread performance: (a) construction time for millions of
//! parallel sleeping threads; (b) wake-up jitter CDF for 10⁶ sleepers.
//! The cross-check line spawns real sleepers on the executor, charging each
//! spawn to the extent-backed GC model, and reads the virtual time their
//! construction took, beside the model's figure.

use mirage_bench::report;
use mirage_bench::threadsim::{
    construction_time, jitter_samples, percentile, ThreadTarget, THREAD_HEAP_BYTES,
};
use mirage_hypervisor::{CostTable, Dur, Hypervisor};
use mirage_pvboot::heap::{EnvOverheads, GcHeap, HeapBacking};
use mirage_runtime::UnikernelGuest;

fn print_fig7a(costs: &CostTable) {
    report::banner(
        "Figure 7a",
        "thread construction time (seconds) vs thread count (millions)",
    );
    let mut rows = Vec::new();
    for millions in [1u64, 2, 5, 10, 15, 20] {
        let n = millions * 1_000_000;
        let mut row = vec![format!("{millions}")];
        for target in ThreadTarget::all() {
            row.push(report::f(
                construction_time(target, n, costs).as_secs_f64(),
                2,
            ));
        }
        rows.push(row);
    }
    report::table(
        &[
            "M threads",
            "Linux PV",
            "Linux native",
            "Mirage (malloc)",
            "Mirage (extent)",
        ],
        &rows,
    );
}

fn print_fig7b(costs: &CostTable) {
    report::banner(
        "Figure 7b",
        "wake-up jitter CDF for 10^6 parallel sleeping threads (ms)",
    );
    let n = 1_000_000;
    let mut rows = Vec::new();
    for pct in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
        let mut row = vec![format!("p{pct:.0}")];
        for target in [
            ThreadTarget::MirageExtent,
            ThreadTarget::LinuxNative,
            ThreadTarget::LinuxPv,
        ] {
            let samples = jitter_samples(target, n, costs);
            row.push(report::f(percentile(&samples, pct).as_millis_f64(), 4));
        }
        rows.push(row);
    }
    report::table(&["pct", "Mirage", "Linux native", "Linux PV"], &rows);
}

/// Cross-validation: really spawn `n` sleepers on the executor, charging
/// each thread value (the main one too) to an extent-backed GC heap, and
/// return the virtual time consumed by *construction* (spawning; the sleeps
/// themselves are excluded, as in the paper's Figure 7a methodology).
fn real_executor_spawn(n: u64) -> Dur {
    let guest = UnikernelGuest::new(move |_env, rt| {
        let mut heap = GcHeap::new(HeapBacking::Extent, EnvOverheads::unikernel(), 1 << 34);
        let rt2 = rt.clone();
        rt.charge_with(|costs| heap.alloc(THREAD_HEAP_BYTES, true, costs));
        rt.spawn(async move {
            let mut handles = Vec::with_capacity(n as usize);
            for i in 0..n {
                let rt3 = rt2.clone();
                rt2.charge_with(|costs| heap.alloc(THREAD_HEAP_BYTES, true, costs));
                handles.push(rt2.spawn(async move {
                    rt3.sleep(Dur::millis(500 + i % 1000)).await;
                }));
            }
            // Let the driver drain the accumulated charges so the clock
            // reflects the construction work.
            rt2.yield_now().await;
            let constructed_at = rt2.now().as_nanos() as i64;
            for h in handles {
                h.await;
            }
            constructed_at
        })
    });
    let mut hv = Hypervisor::new();
    let dom = hv.create_domain("threads", 256, Box::new(guest));
    hv.run();
    let constructed_ns = hv.exit_code(dom).expect("guest finished") as u64;
    Dur::nanos(constructed_ns)
}

fn main() {
    let costs = CostTable::defaults();
    print_fig7a(&costs);
    print_fig7b(&costs);
    let real = real_executor_spawn(50_000);
    let modelled = construction_time(ThreadTarget::MirageExtent, 50_000, &costs);
    println!(
        "cross-check @50k threads (GC-charged spawn only): executor {:.2} ms vs model {:.2} ms",
        real.as_millis_f64(),
        modelled.as_millis_f64()
    );
}
