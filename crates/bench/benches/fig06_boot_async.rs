//! Figure 6 — "Boot time using an asynchronous Xen toolstack": isolating
//! VM startup from serialised domain construction.

use mirage_bench::bootsim::{boot_time, BootTarget, FIG6_MEMORY_SWEEP};
use mirage_bench::report;
use mirage_hypervisor::toolstack::BuildMode;

fn print_figure() {
    report::banner(
        "Figure 6",
        "boot time with the parallel toolstack, seconds",
    );
    let mut rows = Vec::new();
    for mem in FIG6_MEMORY_SWEEP {
        let mirage = boot_time(BootTarget::Mirage, mem, BuildMode::Parallel);
        let linux = boot_time(BootTarget::MinimalLinux, mem, BuildMode::Parallel);
        rows.push(vec![
            format!("{mem}"),
            report::f(mirage.as_secs_f64(), 4),
            report::f(linux.as_secs_f64(), 4),
        ]);
    }
    report::table(&["MiB", "Mirage", "Linux PV"], &rows);
    let m64 = boot_time(BootTarget::Mirage, 64, BuildMode::Parallel);
    println!(
        "Mirage @64 MiB: {:.1} ms (paper: \"Mirage boots in under 50 milliseconds\")",
        m64.as_millis_f64()
    );
}

fn main() {
    print_figure();
}
