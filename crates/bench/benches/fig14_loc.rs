//! Figure 14a — "Lines of active code" for the evaluated appliances:
//! pruned Linux inventories vs the Mirage link closure (computed from the
//! real Table 1 catalogue).

use mirage_bench::report;
use mirage_core::inventory::{linux_appliance, linux_total, mirage_total, ApplianceKind};

fn print_figure() {
    report::banner(
        "Figure 14a",
        "active lines of code per appliance (pre-processed)",
    );
    let mut rows = Vec::new();
    for kind in ApplianceKind::all() {
        let linux = linux_total(kind);
        let mirage = mirage_total(kind);
        rows.push(vec![
            kind.label().to_owned(),
            format!("{linux}"),
            format!("{mirage}"),
            report::f(linux as f64 / mirage as f64, 1),
        ]);
    }
    report::table(&["appliance", "Linux LoC", "Mirage LoC", "ratio"], &rows);
    println!("paper: \"a Linux appliance involves at least 4-5x more LoC\"");

    report::banner("Figure 14a (detail)", "Linux DNS appliance inventory");
    let items: Vec<Vec<String>> = linux_appliance(ApplianceKind::Dns)
        .iter()
        .map(|e| vec![e.component.to_owned(), format!("{}", e.loc)])
        .collect();
    report::table(&["component", "LoC"], &items);
}

fn main() {
    print_figure();
}
