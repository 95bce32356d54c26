//! Figure 13 — "Static page serving performance, comparing Mirage and
//! Apache2 running on Linux" across vCPU splits of a 6-CPU host.

use mirage_baseline::StaticWebConfig;
use mirage_bench::report;
use mirage_hypervisor::CostTable;

fn print_figure() {
    report::banner("Figure 13", "static page serving (connections/s)");
    let costs = CostTable::defaults();
    let mut rows = Vec::new();
    for cfg in StaticWebConfig::all() {
        rows.push(vec![
            cfg.label().to_owned(),
            report::f(cfg.throughput_cps(&costs), 0),
        ]);
    }
    report::table(&["Configuration", "conns/s"], &rows);
    println!("paper: Linux 6x1 > 2x3 > 1x6; Mirage's 6 unikernels exceed all");
}

fn main() {
    print_figure();
}
