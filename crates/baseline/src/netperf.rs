//! TCP endpoint profiles for the Figure 8 iperf comparison (paper §4.1.3)
//! and the flood-ping latency microbenchmark.
//!
//! "All hardware offload was disabled to provide the most stringent test
//! of Mirage … Performance is on par with Linux: Mirage's receive
//! throughput is slightly higher due to the lack of a userspace copy,
//! while its transmit performance is lower due to higher CPU usage."
//!
//! An [`EndpointProfile`] prices what each stack does per MSS-sized
//! segment beyond the shared protocol work (which both sides run through
//! the same `mirage-net` TCP state machine in the benchmark):
//!
//! * Linux pays the socket-API path: syscalls plus a user↔kernel copy in
//!   both directions, softirq dispatch on receive.
//! * Mirage pays no copies or traps on receive (pages are mapped straight
//!   to the application, §3.4.1) but more CPU on transmit — "the naturally
//!   higher overheads of implementing low-level operations in OCaml
//!   rather than C", concentrated in the segmentation/checksum path that
//!   TSO would otherwise hide.

use mirage_hypervisor::{CostTable, Dur};

/// Which stack terminates an iperf flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpEndpoint {
    /// Linux 3.7 TCPv4 via the socket API.
    Linux,
    /// The Mirage stack.
    Mirage,
}

/// Per-segment CPU costs beyond the shared state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointProfile {
    /// Extra transmit cost per MSS segment.
    pub tx_per_segment: Dur,
    /// Extra receive cost per MSS segment.
    pub rx_per_segment: Dur,
}

/// MSS used by the Figure 8 runs.
pub const MSS: usize = 1460;

impl TcpEndpoint {
    /// The endpoint's cost profile.
    pub fn profile(&self, costs: &CostTable) -> EndpointProfile {
        match self {
            TcpEndpoint::Linux => EndpointProfile {
                // write(2) amortised over the socket buffer + copy in.
                tx_per_segment: costs.copy(MSS) + Dur::nanos(costs.syscall.as_nanos() / 4),
                // softirq + skb handling + copy out to userspace + epoll.
                rx_per_segment: costs.copy(MSS) * 2
                    + Dur::nanos(costs.irq_dispatch.as_nanos() / 2)
                    + Dur::nanos(costs.syscall.as_nanos() / 2),
            },
            TcpEndpoint::Mirage => EndpointProfile {
                // No-offload segmentation + checksum + header prep in
                // OCaml: the "higher CPU usage" transmit side (this is
                // exactly the work TSO would hide, §4.1.3).
                tx_per_segment: costs.copy(MSS) * 4 + Dur::micros(4),
                // Zero-copy receive: the page is sliced, never copied.
                rx_per_segment: Dur::nanos(250),
            },
        }
    }

    /// Ping (ICMP echo) handling latency: the §4.1.3 flood-ping result —
    /// "Mirage suffered a small (4–10%) increase in latency compared to
    /// Linux due to the slight overhead of type-safety" (Linux answers
    /// echo in-kernel with hand-tuned C parsing; Mirage parses with
    /// bounds-checked views).
    pub fn ping_latency(&self, costs: &CostTable) -> Dur {
        let wire_and_switch = Dur::micros(40);
        match self {
            TcpEndpoint::Linux => wire_and_switch + costs.irq_dispatch + Dur::micros(3),
            TcpEndpoint::Mirage => {
                let linux = TcpEndpoint::Linux.ping_latency(costs);
                // +7% (mid paper range) from checked header parsing.
                Dur::nanos(linux.as_nanos() * 107 / 100)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> CostTable {
        CostTable::defaults()
    }

    #[test]
    fn ping_latency_gap_is_4_to_10_percent() {
        let c = costs();
        let linux = TcpEndpoint::Linux.ping_latency(&c).as_nanos() as f64;
        let mirage = TcpEndpoint::Mirage.ping_latency(&c).as_nanos() as f64;
        let overhead = mirage / linux - 1.0;
        assert!(
            (0.04..0.10).contains(&overhead),
            "type-safety overhead {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn both_saturate_gigabit() {
        // "Both Linux and Mirage can saturate a gigabit network": neither
        // endpoint's per-segment work — the shared state-machine work the
        // simulated iperf charges on every segment plus its own profile —
        // outlasts one MSS on a 1 Gb/s wire.
        let c = costs();
        let wire = Dur::nanos((MSS * 8) as u64);
        let shared = Dur::micros(5) + c.copy(MSS / 8);
        for endpoint in [TcpEndpoint::Linux, TcpEndpoint::Mirage] {
            let p = endpoint.profile(&c);
            assert!(
                shared + p.tx_per_segment.max(p.rx_per_segment) < wire,
                "{endpoint:?}: {shared:?} + {p:?}"
            );
        }
    }
}
