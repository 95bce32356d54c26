//! Figure 11 — "OpenFlow controller performance": cbench batch/single
//! throughput for Maestro, NOX destiny-fast and Mirage, priced by the
//! controller cost model (the real controller's behaviour under cbench is
//! asserted in `mirage_openflow::cbench`).

use mirage_baseline::openflow::ControllerVariant;
use mirage_bench::report;
use mirage_hypervisor::CostTable;
use mirage_openflow::CbenchMode;

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
    println!("paper: NOX highest (unfair in batch), Mirage between NOX and Maestro");
}

fn main() {
    print_figure();
}
