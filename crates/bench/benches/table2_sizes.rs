//! Table 2 — "Sizes of Mirage unikernels, before and after dead-code
//! elimination. Configuration and data are compiled directly into the
//! unikernel."

use mirage_bench::report;
use mirage_core::{Appliance, DceLevel, Library};

fn build(name: &str, roots: &[Library], level: DceLevel) -> u64 {
    let mut b = Appliance::builder(name).dce(level);
    for r in roots {
        b = b.library(*r);
    }
    b = b.static_config("config", "compiled-in");
    b.build().expect("valid").image().size_bytes()
}

const APPLIANCES: [(&str, &[Library]); 4] = [
    ("DNS", &[Library::APP_DNS, Library::NET_DHCP]),
    (
        "Web Server",
        &[Library::APP_HTTP, Library::STORE_BTREE, Library::FMT_JSON],
    ),
    ("OpenFlow switch", &[Library::NET_OPENFLOW]),
    ("OpenFlow controller", &[Library::NET_OPENFLOW, Library::STORE_KV]),
];

fn print_table() {
    report::banner(
        "Table 2",
        "unikernel binary sizes (MB), standard build vs dead-code elimination",
    );
    let mut rows = Vec::new();
    for (name, roots) in APPLIANCES {
        let standard = build(name, roots, DceLevel::Standard);
        let cleaned = build(name, roots, DceLevel::FunctionLevel);
        rows.push(vec![
            name.to_owned(),
            report::f(standard as f64 / 1e6, 3),
            report::f(cleaned as f64 / 1e6, 3),
        ]);
    }
    report::table(&["Appliance", "Standard build", "Dead code elimination"], &rows);
    println!("paper: DNS 0.449/0.184, Web 0.673/0.172, OF switch 0.393/0.164, OF controller 0.392/0.168");
}

fn main() {
    print_table();
}
