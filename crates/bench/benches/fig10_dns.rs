//! Figure 10 — "DNS performance with increasing zone size": the six-server
//! comparison in virtual time. The wall-clock cost of the real
//! `DnsServer::answer` is `benchmark/`'s `dns.answer_{hit,miss}_ns`; the
//! §4.2 compression-table ablation is held by `crates/dns/tests/alloc_budget.rs`.

use mirage_baseline::DnsVariant;
use mirage_bench::report;
use mirage_hypervisor::CostTable;

const ZONE_SIZES: [usize; 5] = [100, 500, 1_000, 5_000, 10_000];

fn print_figure() {
    report::banner(
        "Figure 10",
        "DNS throughput (kqueries/s) vs zone size (entries)",
    );
    let costs = CostTable::defaults();
    let mut rows = Vec::new();
    for entries in ZONE_SIZES {
        let mut row = vec![format!("{entries}")];
        for variant in DnsVariant::all() {
            row.push(report::f(variant.throughput_qps(&costs, entries) / 1e3, 1));
        }
        rows.push(row);
    }
    let mut headers = vec!["zone"];
    headers.extend(DnsVariant::all().map(|v| v.label()));
    report::table(&headers, &rows);
    println!("paper: Bind ~55k, NSD ~70k, Mirage memo 75-80k, no-memo ~40k, MiniOS far lower");
}

fn main() {
    print_figure();
}
