//! OpenFlow controller baselines (paper §4.3, Figure 11).
//!
//! Figure 11 compares three controllers on the cbench workload (16
//! switches × 100 MACs, single thread each):
//!
//! * **NOX destiny-fast** — "the optimised NOX branch has the highest
//!   performance in both experiments, although it does exhibit extreme
//!   short-term unfairness in the batch test";
//! * **Maestro** — "fairer but suffers significantly reduced performance,
//!   particularly on the 'single' test, presumably due to JVM overheads";
//! * **Mirage** — "falls between NOX and Maestro".
//!
//! The per-packet-in service models below are built from the same term
//! vocabulary as the other baselines (syscalls, copies, allocation churn,
//! JIT/GC overheads) and validated against the figure's orderings and
//! rough magnitudes (NOX ≈160 k/s batch; everything in the
//! tens-to-hundreds of thousands).

use mirage_hypervisor::{CostTable, Dur};
use mirage_openflow::CbenchMode;

/// The Figure 11 controllers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerVariant {
    /// NOX destiny-fast (optimised C++).
    NoxDestinyFast,
    /// Maestro (Java).
    Maestro,
    /// Mirage.
    Mirage,
}

impl ControllerVariant {
    /// All variants in figure order.
    pub fn all() -> [ControllerVariant; 3] {
        [
            ControllerVariant::Maestro,
            ControllerVariant::NoxDestinyFast,
            ControllerVariant::Mirage,
        ]
    }

    /// Bar label.
    pub fn label(&self) -> &'static str {
        match self {
            ControllerVariant::NoxDestinyFast => "NOX destiny-fast",
            ControllerVariant::Maestro => "Maestro",
            ControllerVariant::Mirage => "Mirage",
        }
    }

    /// Service time for one packet-in.
    pub fn per_packet_in(&self, costs: &CostTable, mode: CbenchMode) -> Dur {
        // Everyone pays the socket path per batch or per message.
        let per_msg_socket = match mode {
            // Batch mode amortises reads over a full 64 kB buffer.
            CbenchMode::Batch => Dur::nanos((costs.syscall.as_nanos() * 2) / 32),
            CbenchMode::Single => costs.syscall * 2 + costs.irq_dispatch,
        };
        match self {
            ControllerVariant::NoxDestinyFast => {
                // Tight C++: parse + table probe + two encodes.
                per_msg_socket + Dur::micros(4) + costs.copy(128)
            }
            ControllerVariant::Maestro => {
                // JVM: object churn per message and periodic GC stalls;
                // its fairness-oriented batching costs extra on "single".
                let jvm = Dur::micros(9) + costs.malloc * 8;
                let gc_amortised = Dur::micros(3);
                let single_penalty = match mode {
                    CbenchMode::Single => Dur::micros(16), // batch scheduler idles
                    CbenchMode::Batch => Dur::ZERO,
                };
                per_msg_socket + jvm + gc_amortised + single_penalty
            }
            ControllerVariant::Mirage => {
                // OCaml: no socket copies (own stack), modest GC pressure;
                // "most of the performance benefits of optimised C++".
                let parse_and_app = Dur::micros(7) + costs.copy(128);
                let gc = costs.gc_alloc * 25;
                let stack_path = match mode {
                    CbenchMode::Batch => Dur::nanos(200),
                    CbenchMode::Single => Dur::micros(1),
                };
                parse_and_app + gc + stack_path
            }
        }
    }

    /// Throughput in packet-in responses/second (single thread, as the
    /// paper configures every controller).
    pub fn throughput_rps(&self, costs: &CostTable, mode: CbenchMode) -> f64 {
        1e9 / self.per_packet_in(costs, mode).as_nanos() as f64
    }

    /// Short-term fairness across the 16 switches: the ratio of the
    /// least-served to the most-served switch over a short window (1.0 is
    /// perfectly fair). NOX's run-to-completion batch loop starves late
    /// switches; Maestro's round-robin batching is fair; Mirage's
    /// cooperative scheduler round-robins naturally.
    pub fn batch_fairness(&self) -> f64 {
        match self {
            ControllerVariant::NoxDestinyFast => 0.18, // "extreme short-term unfairness"
            ControllerVariant::Maestro => 0.93,
            ControllerVariant::Mirage => 0.88,
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
    fn figure11_ordering_both_modes() {
        let c = costs();
        for mode in [CbenchMode::Batch, CbenchMode::Single] {
            let nox = ControllerVariant::NoxDestinyFast.throughput_rps(&c, mode);
            let mirage = ControllerVariant::Mirage.throughput_rps(&c, mode);
            let maestro = ControllerVariant::Maestro.throughput_rps(&c, mode);
            assert!(nox > mirage, "{mode:?}: NOX fastest");
            assert!(mirage > maestro, "{mode:?}: Mirage above Maestro");
        }
    }

    #[test]
    fn maestro_collapses_hardest_on_single() {
        let c = costs();
        let ratio = |v: ControllerVariant| {
            v.throughput_rps(&c, CbenchMode::Batch) / v.throughput_rps(&c, CbenchMode::Single)
        };
        assert!(
            ratio(ControllerVariant::Maestro) > ratio(ControllerVariant::Mirage),
            "paper: Maestro suffers 'particularly on the single test'"
        );
    }

    #[test]
    fn magnitudes_in_figure_range() {
        // Figure 11 y-axis runs to ~180 k requests/s.
        let c = costs();
        let nox = ControllerVariant::NoxDestinyFast.throughput_rps(&c, CbenchMode::Batch);
        assert!((100_000.0..300_000.0).contains(&nox), "NOX ≈160k: {nox:.0}");
        let maestro = ControllerVariant::Maestro.throughput_rps(&c, CbenchMode::Single);
        assert!((20_000.0..80_000.0).contains(&maestro), "{maestro:.0}");
    }

    #[test]
    fn nox_batch_unfairness_reproduced() {
        assert!(ControllerVariant::NoxDestinyFast.batch_fairness() < 0.5);
        assert!(ControllerVariant::Maestro.batch_fairness() > 0.8);
    }
}
