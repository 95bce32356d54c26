//! Domain construction — the Xen toolstack model.
//!
//! Figure 5 of the paper measures boot time with the stock toolstack, which
//! "synchronously buil\[ds\] domains, since latency isn't normally a prime
//! concern for VM construction". Figure 6 repeats the measurement after the
//! authors "modified the Xen toolstack to support parallel domain
//! construction". This module models both: construction cost is affine in
//! the domain's memory size (page-table setup dominates), and the
//! synchronous mode serialises builds behind a per-domain toolstack
//! overhead.

use crate::clock::Time;
use crate::{DomainId, Guest, Hypervisor};

/// Whether domain builds are serialised by the toolstack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildMode {
    /// Stock toolstack: builds are serialised and each pays the
    /// synchronous-toolstack overhead (Figure 5).
    Synchronous,
    /// The paper's modified toolstack: builds proceed concurrently and
    /// the serialised overhead disappears (Figure 6).
    Parallel,
}

/// Everything needed to construct one domain.
pub struct DomainSpec {
    /// Domain name (for reporting).
    pub name: String,
    /// Memory reservation in MiB — the dominant build-cost driver.
    pub mem_mib: u64,
    /// The workload to boot once construction completes.
    pub guest: Box<dyn Guest>,
}

impl DomainSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, mem_mib: u64, guest: Box<dyn Guest>) -> DomainSpec {
        DomainSpec {
            name: name.into(),
            mem_mib,
            guest,
        }
    }
}

/// Timeline of one domain's construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Built {
    /// The constructed domain.
    pub dom: DomainId,
    /// When the build was requested.
    pub requested: Time,
    /// When the domain became runnable (construction complete). The
    /// *guest* then still has to boot; Figure 5/6 measure up to the guest's
    /// own ready signal.
    pub constructed: Time,
}

/// The toolstack: builds domains on a hypervisor with modelled latency.
#[derive(Debug, Clone, Copy)]
pub struct Toolstack {
    mode: BuildMode,
}

impl Toolstack {
    /// A toolstack in the given build mode.
    pub fn new(mode: BuildMode) -> Toolstack {
        Toolstack { mode }
    }

    /// The active mode.
    pub fn mode(&self) -> BuildMode {
        self.mode
    }

    /// Builds every spec, returning per-domain timelines.
    ///
    /// In [`BuildMode::Synchronous`] the i-th domain only starts building
    /// once the (i-1)-th finished; in [`BuildMode::Parallel`] all builds
    /// start immediately.
    pub fn build(&self, hv: &mut Hypervisor, specs: Vec<DomainSpec>) -> Vec<Built> {
        let requested = hv.now();
        let mut results = Vec::with_capacity(specs.len());
        let mut cursor = requested;
        for spec in specs {
            let build_cost = hv.costs().domain_build(spec.mem_mib);
            let constructed = match self.mode {
                BuildMode::Synchronous => {
                    let done = cursor + hv.costs().toolstack_sync_overhead + build_cost;
                    cursor = done;
                    done
                }
                BuildMode::Parallel => requested + build_cost,
            };
            let dom = hv.create_domain_at(spec.name, spec.mem_mib, spec.guest, constructed);
            results.push(Built {
                dom,
                requested,
                constructed,
            });
        }
        results
    }

    /// Builds a single domain.
    pub fn build_one(&self, hv: &mut Hypervisor, spec: DomainSpec) -> Built {
        self.build(hv, vec![spec])
            .pop()
            .expect("one spec yields one build")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainEnv, Dur, Step};

    /// Construction latency.
    fn build_time(b: &Built) -> Dur {
        b.constructed.since(b.requested)
    }

    struct Nop;
    impl Guest for Nop {
        fn step(&mut self, _env: &mut DomainEnv<'_>) -> Step {
            Step::Exit(0)
        }
    }

    fn specs(n: usize, mem: u64) -> Vec<DomainSpec> {
        (0..n)
            .map(|i| DomainSpec::new(format!("d{i}"), mem, Box::new(Nop) as Box<dyn Guest>))
            .collect()
    }

    #[test]
    fn build_cost_grows_with_memory() {
        let mut hv = Hypervisor::new();
        let ts = Toolstack::new(BuildMode::Parallel);
        let small = ts.build_one(&mut hv, DomainSpec::new("s", 64, Box::new(Nop)));
        let large = ts.build_one(&mut hv, DomainSpec::new("l", 2048, Box::new(Nop)));
        assert!(build_time(&large) > build_time(&small));
    }

    #[test]
    fn synchronous_builds_serialise() {
        let mut hv = Hypervisor::new();
        let ts = Toolstack::new(BuildMode::Synchronous);
        let built = ts.build(&mut hv, specs(3, 128));
        assert!(built[0].constructed < built[1].constructed);
        assert!(built[1].constructed < built[2].constructed);
        let single = build_time(&built[0]);
        assert_eq!(build_time(&built[2]), single * 3, "third waits twice");
    }

    #[test]
    fn parallel_builds_overlap() {
        let mut hv = Hypervisor::new();
        let ts = Toolstack::new(BuildMode::Parallel);
        let built = ts.build(&mut hv, specs(3, 128));
        assert_eq!(built[0].constructed, built[1].constructed);
        assert_eq!(built[1].constructed, built[2].constructed);
    }

    #[test]
    fn parallel_is_never_slower_than_synchronous() {
        for n in [1usize, 2, 8] {
            let mut hv_s = Hypervisor::new();
            let mut hv_p = Hypervisor::new();
            let sync_last = Toolstack::new(BuildMode::Synchronous)
                .build(&mut hv_s, specs(n, 256))
                .last()
                .unwrap()
                .constructed;
            let par_last = Toolstack::new(BuildMode::Parallel)
                .build(&mut hv_p, specs(n, 256))
                .last()
                .unwrap()
                .constructed;
            assert!(par_last <= sync_last);
        }
    }

    #[test]
    fn domain_runs_only_after_construction() {
        struct Observer;
        impl Guest for Observer {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                env.observe("first-step");
                Step::Exit(0)
            }
        }
        let mut hv = Hypervisor::new();
        let ts = Toolstack::new(BuildMode::Synchronous);
        let built = ts.build_one(&mut hv, DomainSpec::new("o", 512, Box::new(Observer)));
        hv.run();
        let obs = hv.observation(built.dom, "first-step").unwrap();
        assert!(obs.at >= built.constructed);
        assert!(build_time(&built) > Dur::millis(100), "512 MiB is slow to build");
    }
}
