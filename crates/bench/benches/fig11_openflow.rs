//! Figure 11 — "OpenFlow controller performance": cbench batch/single
//! throughput for Maestro, NOX destiny-fast and Mirage, with the Mirage
//! bar measured through the real controller + cbench harness.

use mirage_baseline::openflow::{run_mirage_cbench, ControllerVariant};
use mirage_bench::report;
use mirage_hypervisor::CostTable;
use mirage_openflow::{Cbench, CbenchMode, LearningSwitch, OfMessage, NO_BUFFER};

fn print_figure() {
    report::banner(
        "Figure 11",
        "OpenFlow controller throughput (k requests/s)",
    );
    let costs = CostTable::defaults();
    let mut rows = Vec::new();
    for variant in ControllerVariant::all() {
        rows.push(vec![
            variant.label().to_owned(),
            report::f(variant.throughput_rps(&costs, CbenchMode::Batch) / 1e3, 1),
            report::f(variant.throughput_rps(&costs, CbenchMode::Single) / 1e3, 1),
            report::f(variant.batch_fairness(), 2),
        ]);
    }
    report::table(&["Controller", "batch", "single", "fairness"], &rows);
    let measured = run_mirage_cbench(&costs, CbenchMode::Single, 10);
    println!(
        "Mirage single, measured through the real controller: {:.1} k req/s",
        measured / 1e3
    );
    println!("paper: NOX highest (unfair in batch), Mirage between NOX and Maestro");
}

fn main() {
    print_figure();
    let mut c = mirage_bench::criterion();
    c.bench_function("fig11/real_cbench_single_16sw_x100macs", |b| {
        b.iter(|| {
            let bench = Cbench::paper_config(CbenchMode::Single);
            mirage_testkit::bench::black_box(bench.run(5, LearningSwitch::new))
        })
    });
    c.bench_function("fig11/real_cbench_batch_2sw", |b| {
        b.iter(|| {
            let bench = Cbench::new(2, 100, CbenchMode::Batch);
            mirage_testkit::bench::black_box(bench.run(1, LearningSwitch::new))
        })
    });
    let packet_in = OfMessage::PacketIn {
        xid: 9,
        buffer_id: NO_BUFFER,
        in_port: 3,
        data: vec![0xAA; 64],
    }
    .encode();
    c.bench_function("fig11/packet_in_parse", |b| {
        b.iter(|| mirage_testkit::bench::black_box(OfMessage::parse(&packet_in).unwrap()))
    });
    c.final_summary();
}
