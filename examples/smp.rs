//! SMP: the Figure 8 throughput matrix across vCPU counts, plus the C1M
//! quiet-tick claim split per core.
//!
//! Two mirage unikernels (sender and receiver) each run a
//! [`Runtime::smp`] executor with one net-stack worker per vCPU; a
//! multi-queue netfront fans RX frames to per-core ingress rings by RSS
//! hash, so every flow's TCB is only ever touched by the core that owns
//! its queue. The matrix runs {1, 16} bulk flows at {1, 2, 4, 8} vCPUs
//! and reports aggregate goodput. What CPU scaling means here is gated on
//! every `cargo test` by `mirage_bench::netsim`'s
//! `sixteen_flows_scale_with_vcpus`, which runs the row printed below:
//! sixteen flows on one vCPU get what one flow gets (>= 0.9x — the core
//! is the bottleneck either way, and fan-in must not collapse it), every
//! added vCPU helps (the 16-flow row never falls), and four cores at
//! least double one. The zero quiet polls of the idle split are
//! `idle_smp_quiet_tick_polls_nothing_on_any_core` beside it.
//!
//! A cell moves 1 MB per flow: at 200 kB a 16-flow cell lasts 10–20 ms,
//! a tenth of the minimum RTO, so it measures slow start and whether one
//! timer happened to fire, not the steady state the gate is about.
//!
//! ```text
//! cargo run --release --example smp
//! ```
//!
//! Everything printed on **stdout** is a function of virtual time and
//! `MIRAGE_TEST_SEED` only and is byte-identical across runs
//! (`scripts/verify.sh --smp` diffs a double run); wall-clock timings go
//! to **stderr**.

use std::time::Instant;

use mirage::baseline::netperf::TcpEndpoint;
use mirage::hypervisor::Dur;
use mirage_bench::netsim::{idle_smp, iperf_smp};

/// Bytes per flow in the matrix.
const BYTES: usize = 1_000_000;
/// Idle connections held for the per-core split.
const CONNS: usize = 2048;

fn main() {
    println!("transfer   : {BYTES} bytes/flow");

    let mut saturating = Vec::new();
    for flows in [1usize, 16] {
        for vcpus in [1usize, 2, 4, 8] {
            let t0 = Instant::now();
            let r = iperf_smp(
                TcpEndpoint::Mirage,
                TcpEndpoint::Mirage,
                vcpus,
                flows,
                BYTES,
            );
            eprintln!(
                "wall: cell flows={flows} vcpus={vcpus} took {:.2} s",
                t0.elapsed().as_secs_f64()
            );
            println!(
                "cell flows={flows:<2} vcpus={vcpus} : goodput {:.1} Mb/s ({} bytes)",
                r.mbps, r.bytes
            );
            if flows == 16 {
                saturating.push((vcpus, r.mbps));
            }
        }
    }

    let base = saturating
        .iter()
        .find(|(v, _)| *v == 1)
        .map(|(_, m)| *m)
        .expect("1-vCPU cell present");
    let speedup = |want: usize| {
        saturating
            .iter()
            .find(|(v, _)| *v == want)
            .map(|(_, m)| m / base)
            .expect("cell present")
    };
    println!(
        "scaling    : x{:.2} at 2 vcpus, x{:.2} at 4 vcpus, x{:.2} at 8 vcpus (16-flow row)",
        speedup(2),
        speedup(4),
        speedup(8)
    );

    // C1M quiet-tick split per core: a 4-vCPU server holds idle
    // keep-alive connections through a 64 ms quiet window; an idle
    // connection arms no deadline, so every core's wheel must stay
    // silent — the O(due work) claim holds per core, not just in
    // aggregate.
    let t0 = Instant::now();
    let r = idle_smp(4, CONNS, Dur::millis(64));
    eprintln!("wall: idle split took {:.2} s", t0.elapsed().as_secs_f64());
    println!("idle split : {} conns held on 4 vcpus, 64 ms quiet window", r.established);
    for (core, (held, polls)) in r
        .conns_per_core
        .iter()
        .zip(&r.quiet_polls_per_core)
        .enumerate()
    {
        println!("  core {core}   : conns {held:>5}, quiet timer polls {polls}");
    }
}
