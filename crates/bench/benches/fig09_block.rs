//! Figure 9 — "Random block read throughput": fio-style random reads over
//! the real blkfront ring against the PCIe-SSD model, direct vs buffered.

use mirage_bench::blocksim::{random_read_throughput, BlockTarget, FIG9_BLOCK_SIZES_KIB};
use mirage_bench::report;

fn print_figure() {
    report::banner(
        "Figure 9",
        "random block read throughput (MiB/s) vs block size",
    );
    let mut rows = Vec::new();
    for kib in FIG9_BLOCK_SIZES_KIB {
        let block = kib * 1024;
        let total = (block * 64).clamp(4 << 20, 64 << 20);
        let mut row = vec![format!("{kib}")];
        for target in BlockTarget::all() {
            row.push(report::f(
                random_read_throughput(target, block, total),
                0,
            ));
        }
        rows.push(row);
    }
    report::table(
        &["KiB", "Mirage", "Linux PV direct", "Linux PV buffered"],
        &rows,
    );
    println!("paper: direct paths overlap, reaching ~1.6 GB/s; buffered plateaus ~300 MB/s");
}

fn main() {
    print_figure();
}
