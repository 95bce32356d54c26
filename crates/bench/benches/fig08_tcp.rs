//! Figure 8 — "Comparative TCP throughput performance with all hardware
//! offload disabled": the iperf matrix, measured through the live TCP
//! stack in virtual time.

use mirage_baseline::netperf::TcpEndpoint;
use mirage_bench::netsim::iperf;
use mirage_bench::report;

const PAIRINGS: [(&str, TcpEndpoint, TcpEndpoint); 3] = [
    ("Linux to Linux", TcpEndpoint::Linux, TcpEndpoint::Linux),
    ("Linux to Mirage", TcpEndpoint::Linux, TcpEndpoint::Mirage),
    ("Mirage to Linux", TcpEndpoint::Mirage, TcpEndpoint::Linux),
];

fn print_figure() {
    report::banner(
        "Figure 8",
        "TCP throughput (Mb/s), live stack in virtual time",
    );
    let mut rows = Vec::new();
    for (name, tx, rx) in PAIRINGS {
        let one = iperf(tx, rx, 1, 2_000_000);
        let ten = iperf(tx, rx, 10, 400_000);
        rows.push(vec![
            name.to_owned(),
            report::f(one.mbps, 0),
            report::f(ten.mbps, 0),
        ]);
    }
    report::table(&["Configuration", "1 flow", "10 flows"], &rows);
    println!("paper: L->L 1590/1534, L->M 1742/1710, M->L 975/952 Mb/s");
}

fn main() {
    print_figure();
}
