//! Figure 12 — "Simple dynamic web appliance performance": httperf-style
//! sessions (9 GETs + 1 POST) against the Twitter-like appliance, Mirage
//! vs nginx+FastCGI+web.py.

use mirage_baseline::DynamicWebVariant;
use mirage_bench::report;
use mirage_hypervisor::CostTable;

fn print_figure() {
    report::banner(
        "Figure 12",
        "reply rate (/s) vs session creation rate (/s); 10 requests/session",
    );
    let costs = CostTable::defaults();
    let mut rows = Vec::new();
    for sessions in [5u32, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
        rows.push(vec![
            format!("{sessions}"),
            report::f(
                DynamicWebVariant::Mirage.reply_rate(&costs, sessions as f64),
                0,
            ),
            report::f(
                DynamicWebVariant::LinuxWebPy.reply_rate(&costs, sessions as f64),
                0,
            ),
        ]);
    }
    report::table(&["sessions/s", "Mirage", "Linux PV"], &rows);
    println!("paper: Mirage linear to ~80 sessions/s; Linux saturates ~20 and degrades");
}

fn main() {
    print_figure();
}
