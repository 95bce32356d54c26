//! Figure 8 × ring ABI: the iperf pairings of `fig08_tcp`, with the
//! device transport as an explicit axis — the same flows ride Xen-style
//! descriptor rings or virtio split virtqueues. That neither transport
//! distorts the endpoint-cost model is gated on the cells of this table by
//! `netsim`'s `every_fig08_cell_is_within_2x_across_backends`.

use mirage_baseline::netperf::TcpEndpoint;
use mirage_bench::netsim::{iperf_on, iperf_smp_on};
use mirage_bench::report;
use mirage_devices::Backend;

const PAIRINGS: [(&str, TcpEndpoint, TcpEndpoint); 3] = [
    ("Linux to Linux", TcpEndpoint::Linux, TcpEndpoint::Linux),
    ("Linux to Mirage", TcpEndpoint::Linux, TcpEndpoint::Mirage),
    ("Mirage to Linux", TcpEndpoint::Mirage, TcpEndpoint::Linux),
];

fn print_figure() {
    report::banner(
        "Figure 8 x backend",
        "TCP throughput (Mb/s), ring ABI as an axis",
    );
    let mut rows = Vec::new();
    for backend in Backend::ALL {
        for (name, tx, rx) in PAIRINGS {
            let one = iperf_on(backend, tx, rx, 1, 1_000_000);
            let four = iperf_on(backend, tx, rx, 4, 250_000);
            rows.push(vec![
                backend.name().to_owned(),
                name.to_owned(),
                report::f(one.mbps, 0),
                report::f(four.mbps, 0),
            ]);
        }
    }
    report::table(&["Backend", "Configuration", "1 flow", "4 flows"], &rows);

    // The SMP path: on either ABI a ring pair and an event channel per
    // vCPU, RSS-classified by the switch across four shard workers.
    for backend in Backend::ALL {
        let r = iperf_smp_on(backend, TcpEndpoint::Mirage, TcpEndpoint::Mirage, 4, 8, 100_000);
        println!(
            "smp backend={} vcpus=4 flows=8 : goodput {:.0} Mb/s ({} bytes)",
            backend.name(),
            r.mbps,
            r.bytes
        );
    }
}

fn main() {
    print_figure();
}
