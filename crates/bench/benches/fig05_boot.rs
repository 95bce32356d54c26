//! Figure 5 — "Domain boot time comparison": request→network-ready with
//! the stock (synchronous) toolstack across the memory sweep.

use mirage_bench::bootsim::{boot_time, BootTarget, FIG5_MEMORY_SWEEP};
use mirage_bench::report;
use mirage_hypervisor::toolstack::BuildMode;

fn print_figure() {
    report::banner(
        "Figure 5",
        "domain boot time vs memory size (synchronous toolstack), seconds",
    );
    let mut rows = Vec::new();
    for mem in FIG5_MEMORY_SWEEP {
        let mut row = vec![format!("{mem}")];
        for target in BootTarget::all() {
            let t = boot_time(target, mem, BuildMode::Synchronous);
            row.push(report::f(t.as_secs_f64(), 3));
        }
        rows.push(row);
    }
    report::table(
        &["MiB", "Linux PV+Apache", "Linux PV", "Mirage"],
        &rows,
    );
}

fn main() {
    print_figure();
}
