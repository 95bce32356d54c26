//! A Xen-like hypervisor substrate for mirage-rs.
//!
//! The paper's whole premise is that "the hypervisor provides a virtual
//! hardware abstraction" (§2) stable enough that a library OS never needs
//! real device drivers. This crate is that abstraction, rebuilt as a
//! deterministic discrete-event simulator so every experiment in the paper
//! can be reproduced on a laptop with no Xen, no NIC and no SSD:
//!
//! * **Domains** host [`Guest`] state machines (unikernels, conventional-OS
//!   models) and run on a configurable number of physical CPUs.
//! * A **virtual clock** ([`clock::Time`]) advances only through the
//!   scheduler; guests charge their CPU work to it via
//!   [`DomainEnv::consume`], making all timing results reproducible.
//! * **Event channels** ([`event`]), **grant tables** ([`grant`]) and the
//!   **seal** page-table extension ([`memory`]) reproduce the inter-VM
//!   communication and security mechanisms of §2.3 and §3.4.
//! * The **toolstack** ([`toolstack`]) models synchronous and parallel
//!   domain construction — the distinction between Figure 5 and Figure 6.
//! * A single **cost table** ([`costs::CostTable`]) holds every unit cost;
//!   figure shapes derive from operation *counts*, not per-figure tuning.
//!
//! # Example: a sleeping guest
//!
//! ```
//! use mirage_hypervisor::{DomainEnv, Dur, Guest, Hypervisor, Step, Wake};
//!
//! struct Sleeper { slept: bool }
//! impl Guest for Sleeper {
//!     fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
//!         if !self.slept {
//!             self.slept = true;
//!             let deadline = env.now() + Dur::millis(5);
//!             Step::Yield(Wake::at(deadline))
//!         } else {
//!             Step::Exit(0)
//!         }
//!     }
//! }
//!
//! let mut hv = Hypervisor::new();
//! let dom = hv.create_domain("sleeper", 16, Box::new(Sleeper { slept: false }));
//! hv.run();
//! assert_eq!(hv.exit_code(dom), Some(0));
//! assert_eq!(hv.now().as_secs_f64(), 0.005);
//! ```

pub mod clock;
pub mod costs;
pub mod event;
pub mod grant;
pub mod memory;
pub mod toolstack;

use std::fmt;

pub use clock::{Dur, Time};
pub use costs::CostTable;
use event::{EventError, EventSubsystem, Port};
use grant::{GrantError, GrantRef, GrantTable, SharedPage};
use memory::{AddressSpace, Mapping, MemError};

/// Size in bytes of a machine page.
pub const PAGE_SIZE: usize = 4096;

/// Identifies a domain (VM) for the lifetime of the hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

impl DomainId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// What a guest asks for when it blocks — PVBoot's `domainpoll`: "blocks
/// the VM on a set of event channels and a timeout" (§3.2). The set is
/// every channel the domain holds, which the event table already knows,
/// so the guest names only the timeout: a notification on any of its
/// channels, a virq or the deadline makes it runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Wake {
    /// Absolute virtual-time deadline, if any.
    pub deadline: Option<Time>,
}

impl Wake {
    /// Reschedule as soon as a physical CPU is free (a cooperative yield).
    pub fn now() -> Wake {
        Wake::at(Time::ZERO)
    }

    /// Sleep until the absolute instant `t`.
    pub fn at(t: Time) -> Wake {
        Wake { deadline: Some(t) }
    }

    /// Block until an event arrives (or forever, if none ever does).
    pub fn never() -> Wake {
        Wake::default()
    }
}

/// The result of one guest scheduling quantum.
#[derive(Debug)]
pub enum Step {
    /// Block per the contained [`Wake`] condition.
    Yield(Wake),
    /// Shut the domain down with an exit code — "the domain subsequently
    /// shuts down with the VM exit code matching the thread return value"
    /// (§3.3).
    Exit(i64),
}

/// A guest workload hosted in a domain.
///
/// Guests are *state machines*: the hypervisor calls [`Guest::step`] each
/// time the domain becomes runnable, and the guest returns how it wants to
/// block next. The Mirage runtime implements this by running its
/// cooperative thread executor until it stalls; the conventional-OS
/// baseline implements it with a process-scheduler model.
///
/// A guest is not `Send`, and so neither is a [`Hypervisor`]: the run
/// loop steps one domain at a time on the calling thread, and the pages
/// domains share are plain single-threaded memory. The peer of a shared
/// ring never runs inside a step.
pub trait Guest {
    /// Runs the domain until it would block, charging CPU time via
    /// [`DomainEnv::consume`].
    fn step(&mut self, env: &mut DomainEnv<'_>) -> Step;
}

/// A timestamped marker recorded by a guest (boot-ready signals, request
/// completions); the experiment harnesses read these out after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Recording domain.
    pub dom: DomainId,
    /// Free-form key, e.g. `"boot-ready"`.
    pub key: String,
    /// Virtual time of the record.
    pub at: Time,
}

/// Aggregate hypervisor counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HvStats {
    /// Total hypercalls executed.
    pub hypercalls: u64,
    /// Event-channel notifications delivered.
    pub notifications: u64,
    /// Grant map operations.
    pub grant_maps: u64,
    /// Hypervisor-mediated page copies.
    pub grant_copies: u64,
    /// Guest scheduling quanta executed.
    pub steps: u64,
}

pub(crate) struct System {
    now: Time,
    costs: CostTable,
    events: EventSubsystem,
    grants: GrantTable,
    aspaces: Vec<AddressSpace>,
    consoles: Vec<String>,
    observations: Vec<Observation>,
    hypercalls: u64,
}

impl System {
    fn add_domain(&mut self, dom: DomainId) {
        let idx = dom.index();
        if self.aspaces.len() <= idx {
            self.aspaces.resize_with(idx + 1, AddressSpace::new);
            self.consoles.resize_with(idx + 1, String::new);
        }
        self.events.add_domain(dom);
    }
}

/// The hypercall and accounting surface a [`Guest`] sees while running.
///
/// Every hypercall charges [`CostTable::hypercall`] to the domain's CPU
/// time in addition to the operation's own cost, so architectures that trap
/// more pay more — the structural basis of the paper's comparisons.
pub struct DomainEnv<'a> {
    dom: DomainId,
    start: Time,
    /// Per-vCPU charge lanes: every vCPU starts the step at `start` and
    /// accrues its own CPU time, so an SMP guest's lanes advance in
    /// parallel (the step ends at `start + max(consumed)`).
    consumed: Vec<Dur>,
    /// The lane [`DomainEnv::consume`] currently charges to.
    cur: usize,
    sys: &'a mut System,
    wakes: Vec<(DomainId, Time)>,
}

impl<'a> DomainEnv<'a> {
    /// The calling domain's id.
    pub fn domid(&self) -> DomainId {
        self.dom
    }

    /// Current virtual time as the guest perceives it on the current vCPU
    /// (step start plus CPU time consumed on that lane so far).
    pub fn now(&self) -> Time {
        self.start + self.consumed[self.cur]
    }

    /// Virtual time as seen from vCPU `v`'s lane.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a valid vCPU index for this domain.
    pub fn now_on(&self, v: usize) -> Time {
        self.start + self.consumed[v]
    }

    /// Number of vCPU charge lanes this domain runs with.
    pub fn vcpus(&self) -> usize {
        self.consumed.len()
    }

    /// The vCPU lane subsequent [`DomainEnv::consume`] calls charge to.
    pub fn current_vcpu(&self) -> usize {
        self.cur
    }

    /// Switches the charging lane to vCPU `v` (SMP guests route each
    /// executor core's work to its own lane).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a valid vCPU index for this domain.
    pub fn on_vcpu(&mut self, v: usize) {
        assert!(v < self.consumed.len(), "vCPU {v} out of range");
        self.cur = v;
    }

    /// Charges `d` of CPU work to this domain's current vCPU.
    pub fn consume(&mut self, d: Dur) {
        self.consumed[self.cur] += d;
    }

    /// Charges `d` of CPU work to vCPU `v` without switching lanes.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a valid vCPU index for this domain.
    pub fn consume_on(&mut self, v: usize, d: Dur) {
        self.consumed[v] += d;
    }

    /// The substrate cost table (read-only; guests use it to price their
    /// own modelled work, e.g. a memcpy).
    pub fn costs(&self) -> &CostTable {
        &self.sys.costs
    }

    fn hypercall(&mut self) {
        self.consumed[self.cur] += self.sys.costs.hypercall;
        self.sys.hypercalls += 1;
    }

    /// Appends to the domain's console (debug output).
    pub fn console_write(&mut self, s: &str) {
        self.hypercall();
        self.sys.consoles[self.dom.index()].push_str(s);
    }

    /// Records a timestamped observation for the experiment harness.
    pub fn observe(&mut self, key: &str) {
        let at = self.now();
        self.sys.observations.push(Observation {
            dom: self.dom,
            key: key.to_owned(),
            at,
        });
    }

    // ----- event channels ------------------------------------------------

    /// Allocates an unbound port that `remote` may bind.
    pub fn evtchn_alloc_unbound(&mut self, remote: DomainId) -> Port {
        self.hypercall();
        self.sys.events.alloc_unbound(self.dom, remote)
    }

    /// Completes an event-channel pair with `(remote, remote_port)`.
    ///
    /// # Errors
    ///
    /// See [`EventSubsystem::bind_interdomain`].
    pub fn evtchn_bind(&mut self, remote: DomainId, remote_port: Port) -> Result<Port, EventError> {
        self.hypercall();
        self.sys.events.bind_interdomain(self.dom, remote, remote_port)
    }

    /// Notifies the peer of `port`, waking it if it is blocked.
    ///
    /// # Errors
    ///
    /// See [`EventSubsystem::notify`].
    pub fn evtchn_notify(&mut self, port: Port) -> Result<(), EventError> {
        self.hypercall();
        self.consumed[self.cur] += self.sys.costs.event_notify;
        let (peer_dom, _) = self.sys.events.notify(self.dom, port)?;
        let at = self.now();
        self.wakes.push((peer_dom, at));
        Ok(())
    }

    /// Closes a local port and, if it was bound, its peer's end too
    /// (`EVTCHNOP_close`): a later notify on either end fails with
    /// [`EventError::Closed`].
    ///
    /// # Errors
    ///
    /// See [`EventSubsystem::close`].
    pub fn evtchn_close(&mut self, port: Port) -> Result<(), EventError> {
        self.hypercall();
        self.sys.events.close(self.dom, port)
    }

    /// Reads and clears the pending bit of a local port.
    ///
    /// Reading the shared-info bitmap needs no trap, so this is free.
    ///
    /// # Errors
    ///
    /// See [`EventSubsystem::consume_pending`].
    pub fn evtchn_consume(&mut self, port: Port) -> Result<bool, EventError> {
        self.sys.events.consume_pending(self.dom, port)
    }

    /// Steers a local port's notifications to vCPU `v` (Xen's
    /// `EVTCHNOP_bind_vcpu`): the guest's per-core executors use the bit to
    /// decide which core services the port.
    ///
    /// # Errors
    ///
    /// See [`EventSubsystem::set_vcpu`].
    pub fn evtchn_set_vcpu(&mut self, port: Port, v: usize) -> Result<(), EventError> {
        self.hypercall();
        self.sys.events.set_vcpu(self.dom, port, v as u32)
    }

    /// The vCPU a local port is steered to (0 unless rebound).
    ///
    /// Reading the routing state needs no trap, so this is free.
    ///
    /// # Errors
    ///
    /// See [`EventSubsystem::vcpu_of`].
    pub fn evtchn_vcpu(&self, port: Port) -> Result<usize, EventError> {
        self.sys.events.vcpu_of(self.dom, port).map(|v| v as usize)
    }

    /// Delivers a virtual interrupt: wakes `dom` without setting any
    /// pending bit (used for xenstore watch events and other out-of-band
    /// signals).
    pub fn virq(&mut self, dom: DomainId) {
        self.hypercall();
        let at = self.now();
        self.wakes.push((dom, at));
    }

    // ----- grant table ----------------------------------------------------

    /// Grants `grantee` access to `page`.
    pub fn grant(&mut self, grantee: DomainId, page: SharedPage, writable: bool) -> GrantRef {
        self.hypercall();
        self.sys.grants.grant(self.dom, grantee, page, writable)
    }

    /// Maps a grant issued to this domain.
    ///
    /// # Errors
    ///
    /// See [`GrantTable::map`].
    pub fn grant_map(&mut self, gref: GrantRef, writable: bool) -> Result<SharedPage, GrantError> {
        self.hypercall();
        self.consumed[self.cur] += self.sys.costs.grant_map;
        self.sys.grants.map(self.dom, gref, writable)
    }

    // ----- memory / sealing ------------------------------------------------

    /// Installs a page-table mapping.
    ///
    /// # Errors
    ///
    /// See [`AddressSpace::map`].
    pub fn mmu_map(&mut self, m: Mapping) -> Result<(), MemError> {
        self.hypercall();
        self.consumed[self.cur] += self.sys.costs.pte_update * m.pages;
        self.sys.aspaces[self.dom.index()].map(m)
    }

    /// Removes the mapping at `vaddr`.
    ///
    /// # Errors
    ///
    /// See [`AddressSpace::unmap`].
    pub fn mmu_unmap(&mut self, vaddr: u64) -> Result<Mapping, MemError> {
        self.hypercall();
        self.sys.aspaces[self.dom.index()].unmap(vaddr)
    }

    /// Changes protection bits at `vaddr`.
    ///
    /// # Errors
    ///
    /// See [`AddressSpace::protect`].
    pub fn mmu_protect(&mut self, vaddr: u64, w: bool, x: bool) -> Result<(), MemError> {
        self.hypercall();
        self.sys.aspaces[self.dom.index()].protect(vaddr, w, x)
    }

    /// The paper's `seal` hypercall: W^X-audit then freeze the page tables
    /// (§2.3.3).
    ///
    /// # Errors
    ///
    /// See [`AddressSpace::seal`].
    pub fn seal(&mut self) -> Result<(), MemError> {
        self.hypercall();
        self.sys.aspaces[self.dom.index()].seal()
    }

    /// Whether this domain's address space is sealed.
    pub fn is_sealed(&self) -> bool {
        self.sys.aspaces[self.dom.index()].is_sealed()
    }
}

/// Why [`Hypervisor::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every domain has exited.
    AllExited,
    /// Live domains remain but none can ever run again (all blocked on
    /// events with no deadline).
    Idle,
    /// The supplied time limit was reached.
    TimeLimit,
    /// The step budget was exhausted (runaway-guest backstop).
    StepBudget,
}

enum SchedState {
    Runnable(Time),
    Blocked(Wake),
    Exited(i64),
}

/// Exit code recorded for a domain destroyed by
/// [`Hypervisor::kill_domain`] (fault injection, not a voluntary exit).
pub const KILLED_EXIT_CODE: i64 = -9;

struct Slot {
    name: String,
    guest: Option<Box<dyn Guest>>,
    state: SchedState,
    ready_at: Time,
    steps: u64,
    vcpus: usize,
}

/// The hypervisor: owns the virtual clock, all domains and the shared
/// subsystems, and runs the discrete-event schedule.
pub struct Hypervisor {
    sys: System,
    slots: Vec<Slot>,
    pcpu_free: Vec<Time>,
    step_budget: u64,
    /// A step's scratch, kept so that a step allocates nothing: its
    /// per-vCPU lanes, the wakes it sent, and the pCPUs gang placement
    /// has used.
    lanes: Vec<Dur>,
    wakes: Vec<(DomainId, Time)>,
    placed: Vec<usize>,
}

impl fmt::Debug for Hypervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hypervisor")
            .field("now", &self.sys.now)
            .field("domains", &self.slots.len())
            .field("pcpus", &self.pcpu_free.len())
            .finish()
    }
}

impl Default for Hypervisor {
    fn default() -> Self {
        Hypervisor::new()
    }
}

impl Hypervisor {
    /// A hypervisor with 6 physical CPUs (the host configuration of the
    /// paper's Figure 13 experiment) and default costs.
    pub fn new() -> Hypervisor {
        Hypervisor::with_pcpus(6)
    }

    /// A hypervisor with `pcpus` physical CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `pcpus` is zero.
    pub fn with_pcpus(pcpus: usize) -> Hypervisor {
        assert!(pcpus > 0, "a host needs at least one physical CPU");
        Hypervisor {
            sys: System {
                now: Time::ZERO,
                costs: CostTable::defaults(),
                events: EventSubsystem::new(),
                grants: GrantTable::new(),
                aspaces: Vec::new(),
                consoles: Vec::new(),
                observations: Vec::new(),
                hypercalls: 0,
            },
            slots: Vec::new(),
            pcpu_free: vec![Time::ZERO; pcpus],
            step_budget: u64::MAX,
            lanes: Vec::new(),
            wakes: Vec::new(),
            placed: Vec::with_capacity(pcpus),
        }
    }

    /// The active cost table.
    pub fn costs(&self) -> &CostTable {
        &self.sys.costs
    }

    /// Caps the total number of guest steps [`Hypervisor::run`] may execute.
    pub fn set_step_budget(&mut self, budget: u64) {
        self.step_budget = budget;
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sys.now
    }

    /// Creates a domain that becomes runnable immediately. `mem_mib` is
    /// the size the toolstack builds and prices ([`CostTable::domain_build`]);
    /// the hypervisor keeps no memory model beyond the address space.
    pub fn create_domain(
        &mut self,
        name: impl Into<String>,
        mem_mib: u64,
        guest: Box<dyn Guest>,
    ) -> DomainId {
        let at = self.sys.now;
        self.create_domain_at(name, mem_mib, guest, at)
    }

    /// Creates a single-vCPU domain that becomes runnable at `at` (the
    /// toolstack uses this to model construction latency).
    pub fn create_domain_at(
        &mut self,
        name: impl Into<String>,
        _mem_mib: u64,
        guest: Box<dyn Guest>,
        at: Time,
    ) -> DomainId {
        self.create_domain_full(name, guest, at, 1)
    }

    /// Creates a multi-vCPU domain, runnable immediately: each guest step
    /// charges work to per-vCPU lanes and the lanes overlap on distinct
    /// physical CPUs (gang-scheduled within the step).
    ///
    /// # Panics
    ///
    /// Panics if `vcpus` is zero.
    pub fn create_domain_vcpus(
        &mut self,
        name: impl Into<String>,
        _mem_mib: u64,
        guest: Box<dyn Guest>,
        vcpus: usize,
    ) -> DomainId {
        let at = self.sys.now;
        self.create_domain_full(name, guest, at, vcpus)
    }

    fn create_domain_full(
        &mut self,
        name: impl Into<String>,
        guest: Box<dyn Guest>,
        at: Time,
        vcpus: usize,
    ) -> DomainId {
        assert!(vcpus > 0, "a domain needs at least one vCPU");
        let dom = DomainId(self.slots.len() as u32);
        self.sys.add_domain(dom);
        self.slots.push(Slot {
            name: name.into(),
            guest: Some(guest),
            state: SchedState::Runnable(at),
            ready_at: at,
            steps: 0,
            vcpus,
        });
        dom
    }

    /// Number of vCPUs `dom` was created with.
    pub fn domain_vcpus(&self, dom: DomainId) -> usize {
        self.slots[dom.index()].vcpus
    }

    /// Forces a blocked domain runnable (external interrupt injection for
    /// harnesses).
    pub fn wake_external(&mut self, dom: DomainId) {
        let now = self.sys.now;
        let slot = &mut self.slots[dom.index()];
        if !matches!(slot.state, SchedState::Exited(_)) {
            slot.state = SchedState::Runnable(now.max(slot.ready_at));
        }
    }

    /// Destroys a running domain in place (crash injection): the guest is
    /// dropped wherever it was, the slot records [`KILLED_EXIT_CODE`], and
    /// peers observe nothing but silence — exactly what a crashed
    /// appliance looks like from across the network. As Xen's domain
    /// destruction does, its event channels are closed with their pending
    /// bits cleared: a peer's notify fails with [`EventError::Closed`], and
    /// nothing reaches a later incarnation through them. No-op if the
    /// domain already exited.
    pub fn kill_domain(&mut self, dom: DomainId) {
        let slot = &mut self.slots[dom.index()];
        if matches!(slot.state, SchedState::Exited(_)) {
            return;
        }
        slot.guest = None;
        slot.state = SchedState::Exited(KILLED_EXIT_CODE);
        self.sys.events.close_domain(dom);
    }

    /// Reboots a dead domain slot with a fresh guest image. The domain
    /// keeps its id, name and memory reservation, and becomes runnable at
    /// the current virtual time — the toolstack-level "destroy then boot a
    /// replacement" recovery loop, without allocating a new slot.
    ///
    /// # Panics
    ///
    /// Panics if the domain has not exited (kill it first).
    pub fn restart_domain(&mut self, dom: DomainId, guest: Box<dyn Guest>) {
        let now = self.sys.now;
        let slot = &mut self.slots[dom.index()];
        assert!(
            matches!(slot.state, SchedState::Exited(_)),
            "restart_domain: domain {} is still live",
            slot.name
        );
        slot.guest = Some(guest);
        slot.state = SchedState::Runnable(now.max(slot.ready_at));
    }

    /// The exit code of `dom`, if it has exited.
    pub fn exit_code(&self, dom: DomainId) -> Option<i64> {
        match self.slots.get(dom.index())?.state {
            SchedState::Exited(code) => Some(code),
            _ => None,
        }
    }

    /// Name a domain was created with.
    pub fn domain_name(&self, dom: DomainId) -> &str {
        &self.slots[dom.index()].name
    }

    /// Console contents of `dom`.
    pub fn console(&self, dom: DomainId) -> &str {
        &self.sys.consoles[dom.index()]
    }

    /// All observations recorded so far.
    pub fn observations(&self) -> &[Observation] {
        &self.sys.observations
    }

    /// First observation matching `dom` and `key`.
    pub fn observation(&self, dom: DomainId, key: &str) -> Option<&Observation> {
        self.sys
            .observations
            .iter()
            .find(|o| o.dom == dom && o.key == key)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> HvStats {
        HvStats {
            hypercalls: self.sys.hypercalls,
            notifications: self.sys.events.notification_count(),
            grant_maps: self.sys.grants.map_count(),
            grant_copies: self.sys.grants.copy_count(),
            steps: self.slots.iter().map(|s| s.steps).sum(),
        }
    }

    /// Read access to a domain's address space (security tests).
    pub fn address_space(&self, dom: DomainId) -> &AddressSpace {
        &self.sys.aspaces[dom.index()]
    }

    /// Runs until every domain exits, the system idles, or the step budget
    /// is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(Time::MAX)
    }

    /// Runs until `limit`, returning early on exit/idle/budget.
    pub fn run_until(&mut self, limit: Time) -> RunOutcome {
        let mut budget = self.step_budget;
        loop {
            let Some((idx, eligible)) = self.next_eligible() else {
                return if self
                    .slots
                    .iter()
                    .all(|s| matches!(s.state, SchedState::Exited(_)))
                {
                    RunOutcome::AllExited
                } else {
                    RunOutcome::Idle
                };
            };
            // Place the step on the earliest-free physical CPU.
            let pcpu = self
                .pcpu_free
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .map(|(i, _)| i)
                .expect("at least one pcpu");
            let start = eligible.max(self.pcpu_free[pcpu]);
            if start > limit {
                self.sys.now = limit;
                return RunOutcome::TimeLimit;
            }
            if budget == 0 {
                return RunOutcome::StepBudget;
            }
            budget -= 1;
            self.sys.now = self.sys.now.max(start);

            let dom = DomainId(idx as u32);
            let vcpus = self.slots[idx].vcpus;
            let mut guest = self.slots[idx].guest.take().expect("guest present");
            let mut consumed = std::mem::take(&mut self.lanes);
            consumed.clear();
            consumed.resize(vcpus, Dur::ZERO);
            let mut env = DomainEnv {
                dom,
                start,
                consumed,
                cur: 0,
                sys: &mut self.sys,
                wakes: std::mem::take(&mut self.wakes),
            };
            let step = guest.step(&mut env);
            let DomainEnv {
                consumed,
                mut wakes,
                ..
            } = env;

            // Gang placement: lane 0 holds the pcpu the step was placed
            // on; every further lane that did work occupies the next
            // earliest-free pcpu for its own duration. With more busy
            // lanes than pcpus the later lanes stack deterministically,
            // so an over-committed host degrades instead of cheating.
            let end = start + consumed.iter().copied().max().unwrap_or(Dur::ZERO);
            self.sys.now = self.sys.now.max(end);
            self.pcpu_free[pcpu] = start + consumed[0].max(Dur::ZERO);
            let mut used = std::mem::take(&mut self.placed);
            used.clear();
            used.push(pcpu);
            for (_lane, lane_consumed) in consumed.iter().enumerate().skip(1) {
                if *lane_consumed == Dur::ZERO {
                    continue;
                }
                let p = self
                    .pcpu_free
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !used.contains(i))
                    .min_by_key(|(_, t)| **t)
                    .map(|(i, _)| i)
                    .unwrap_or(pcpu);
                self.pcpu_free[p] = self.pcpu_free[p].max(start + *lane_consumed);
                if used.len() < self.pcpu_free.len() {
                    used.push(p);
                }
            }
            self.placed = used;
            self.lanes = consumed;
            let slot = &mut self.slots[idx];
            slot.guest = Some(guest);
            slot.ready_at = end;
            slot.steps += 1;
            match step {
                Step::Exit(code) => slot.state = SchedState::Exited(code),
                Step::Yield(wake) => {
                    // domainpoll semantics: check pending bits before blocking.
                    slot.state = if self.sys.events.any_pending(dom) {
                        SchedState::Runnable(end)
                    } else {
                        SchedState::Blocked(wake)
                    };
                }
            }
            for (peer, at) in wakes.drain(..) {
                self.deliver_wake(peer, at);
            }
            self.wakes = wakes;
        }
    }

    /// Runs for `dur` of virtual time from the current instant.
    pub fn run_for(&mut self, dur: Dur) -> RunOutcome {
        let limit = self.sys.now + dur;
        self.run_until(limit)
    }

    fn deliver_wake(&mut self, dom: DomainId, at: Time) {
        let slot = &mut self.slots[dom.index()];
        if matches!(slot.state, SchedState::Blocked(_)) {
            slot.state = SchedState::Runnable(at.max(slot.ready_at));
        }
    }

    fn next_eligible(&self) -> Option<(usize, Time)> {
        let mut best: Option<(usize, Time)> = None;
        for (idx, slot) in self.slots.iter().enumerate() {
            let eligible = match &slot.state {
                SchedState::Exited(_) => continue,
                SchedState::Runnable(t) => (*t).max(slot.ready_at),
                SchedState::Blocked(wake) => match wake.deadline {
                    Some(d) => d.max(slot.ready_at),
                    None => continue,
                },
            };
            match best {
                Some((_, t)) if t <= eligible => {}
                _ => best = Some((idx, eligible)),
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exits after consuming a fixed amount of CPU across several yields.
    struct Worker {
        quanta: u32,
        cost: Dur,
    }

    impl Guest for Worker {
        fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
            env.consume(self.cost);
            if self.quanta == 0 {
                return Step::Exit(7);
            }
            self.quanta -= 1;
            Step::Yield(Wake::now())
        }
    }

    /// Sleeps a fixed duration then records an observation and exits.
    struct Sleeper {
        dur: Dur,
        armed: bool,
    }

    impl Guest for Sleeper {
        fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
            if !self.armed {
                self.armed = true;
                let t = env.now() + self.dur;
                Step::Yield(Wake::at(t))
            } else {
                env.observe("woke");
                Step::Exit(0)
            }
        }
    }

    #[test]
    fn kill_then_restart_reuses_the_slot() {
        let mut hv = Hypervisor::with_pcpus(1);
        let d = hv.create_domain(
            "victim",
            16,
            Box::new(Worker { quanta: 1_000_000, cost: Dur::micros(10) }),
        );
        hv.run_until(Time::ZERO + Dur::millis(1));
        assert_eq!(hv.exit_code(d), None, "still running");
        hv.kill_domain(d);
        assert_eq!(hv.exit_code(d), Some(KILLED_EXIT_CODE));
        // A dead domain stays dead: the scheduler must not pick it.
        assert_eq!(hv.run(), RunOutcome::AllExited);
        // Reboot the slot with a fresh image; it runs to completion.
        hv.restart_domain(d, Box::new(Worker { quanta: 2, cost: Dur::micros(10) }));
        assert_eq!(hv.exit_code(d), None, "runnable again");
        assert_eq!(hv.run(), RunOutcome::AllExited);
        assert_eq!(hv.exit_code(d), Some(7));
        assert_eq!(hv.domain_name(d), "victim", "identity preserved");
        hv.kill_domain(d);
        assert_eq!(hv.exit_code(d), Some(7), "killing an exited domain is a no-op");
    }

    #[test]
    fn single_domain_runs_to_exit() {
        let mut hv = Hypervisor::with_pcpus(1);
        let d = hv.create_domain("w", 16, Box::new(Worker { quanta: 3, cost: Dur::micros(10) }));
        assert_eq!(hv.run(), RunOutcome::AllExited);
        assert_eq!(hv.exit_code(d), Some(7));
        assert_eq!(hv.now(), Time::ZERO + Dur::micros(40), "4 quanta serialised");
    }

    #[test]
    fn timers_advance_virtual_time_exactly() {
        let mut hv = Hypervisor::with_pcpus(1);
        let d = hv.create_domain("s", 16, Box::new(Sleeper { dur: Dur::secs(3), armed: false }));
        assert_eq!(hv.run(), RunOutcome::AllExited);
        let obs = hv.observation(d, "woke").expect("observation recorded");
        assert_eq!(obs.at, Time::ZERO + Dur::secs(3));
    }

    #[test]
    fn two_pcpus_run_domains_in_parallel() {
        let mut hv = Hypervisor::with_pcpus(2);
        for _ in 0..2 {
            hv.create_domain("w", 16, Box::new(Worker { quanta: 0, cost: Dur::millis(5) }));
        }
        hv.run();
        assert_eq!(hv.now(), Time::ZERO + Dur::millis(5), "steps overlapped");

        let mut hv1 = Hypervisor::with_pcpus(1);
        for _ in 0..2 {
            hv1.create_domain("w", 16, Box::new(Worker { quanta: 0, cost: Dur::millis(5) }));
        }
        hv1.run();
        assert_eq!(hv1.now(), Time::ZERO + Dur::millis(10), "steps serialised");
    }

    #[test]
    fn run_until_stops_at_limit() {
        let mut hv = Hypervisor::with_pcpus(1);
        hv.create_domain("s", 16, Box::new(Sleeper { dur: Dur::secs(100), armed: false }));
        let outcome = hv.run_until(Time::ZERO + Dur::secs(1));
        assert_eq!(outcome, RunOutcome::TimeLimit);
        assert_eq!(hv.now(), Time::ZERO + Dur::secs(1));
        assert_eq!(hv.run(), RunOutcome::AllExited);
    }

    #[test]
    fn blocked_forever_reports_idle() {
        struct BlockForever;
        impl Guest for BlockForever {
            fn step(&mut self, _env: &mut DomainEnv<'_>) -> Step {
                Step::Yield(Wake::never())
            }
        }
        let mut hv = Hypervisor::with_pcpus(1);
        hv.create_domain("b", 16, Box::new(BlockForever));
        assert_eq!(hv.run(), RunOutcome::Idle);
    }

    #[test]
    fn step_budget_halts_runaway_guest() {
        struct Spinner;
        impl Guest for Spinner {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                env.consume(Dur::nanos(1));
                Step::Yield(Wake::now())
            }
        }
        let mut hv = Hypervisor::with_pcpus(1);
        hv.create_domain("spin", 16, Box::new(Spinner));
        hv.set_step_budget(100);
        assert_eq!(hv.run(), RunOutcome::StepBudget);
        assert_eq!(hv.stats().steps, 100);
    }

    #[test]
    fn vcpu_lanes_overlap_on_distinct_pcpus() {
        // An SMP guest charging 5ms to each of 4 lanes finishes in 5ms on
        // a 4-pcpu host, 10ms when squeezed onto 2 pcpus (lanes stack).
        struct Smp;
        impl Guest for Smp {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                assert_eq!(env.vcpus(), 4);
                for v in 0..4 {
                    env.consume_on(v, Dur::millis(5));
                }
                assert_eq!(env.now_on(3), Time::ZERO + Dur::millis(5));
                Step::Exit(0)
            }
        }
        let mut hv = Hypervisor::with_pcpus(4);
        hv.create_domain_vcpus("smp", 64, Box::new(Smp), 4);
        hv.run();
        assert_eq!(hv.now(), Time::ZERO + Dur::millis(5), "lanes overlapped");

        let mut hv2 = Hypervisor::with_pcpus(2);
        let d = hv2.create_domain_vcpus("smp", 64, Box::new(Smp), 4);
        assert_eq!(hv2.domain_vcpus(d), 4);
        hv2.run();
        // The slot itself still finishes at max-lane time; only *further*
        // work contends with the stacked pcpus.
        assert_eq!(hv2.now(), Time::ZERO + Dur::millis(5));
    }

    #[test]
    fn current_vcpu_routes_consume() {
        struct Router;
        impl Guest for Router {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                assert_eq!(env.current_vcpu(), 0);
                env.consume(Dur::millis(1));
                env.on_vcpu(1);
                assert_eq!(env.current_vcpu(), 1);
                env.consume(Dur::millis(3));
                assert_eq!(env.now(), Time::ZERO + Dur::millis(3));
                assert_eq!(env.now_on(0), Time::ZERO + Dur::millis(1));
                Step::Exit(0)
            }
        }
        let mut hv = Hypervisor::with_pcpus(2);
        hv.create_domain_vcpus("r", 16, Box::new(Router), 2);
        hv.run();
        assert_eq!(hv.now(), Time::ZERO + Dur::millis(3));
    }

    #[test]
    fn event_channel_ping_pong_between_domains() {
        // Server allocates an unbound port, observes it, and echoes every
        // notification; client binds and sends 3 pings. Both block on
        // nothing but the channel they hold.
        struct Server {
            client: DomainId,
            port: Option<Port>,
        }
        impl Guest for Server {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                match self.port {
                    None => {
                        let p = env.evtchn_alloc_unbound(self.client);
                        env.observe(&format!("port:{}", p.0));
                        self.port = Some(p);
                    }
                    Some(p) => {
                        if env.evtchn_consume(p).unwrap() {
                            env.consume(Dur::micros(1));
                            env.evtchn_notify(p).unwrap();
                        }
                    }
                }
                Step::Yield(Wake::never())
            }
        }
        struct Client {
            server: DomainId,
            server_port: Port,
            port: Option<Port>,
            remaining: u32,
        }
        impl Guest for Client {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                let p = match self.port {
                    None => {
                        let p = env.evtchn_bind(self.server, self.server_port).unwrap();
                        self.port = Some(p);
                        env.evtchn_notify(p).unwrap();
                        self.remaining -= 1;
                        return Step::Yield(Wake::never());
                    }
                    Some(p) => p,
                };
                if env.evtchn_consume(p).unwrap() {
                    if self.remaining == 0 {
                        return Step::Exit(0);
                    }
                    self.remaining -= 1;
                    env.evtchn_notify(p).unwrap();
                }
                Step::Yield(Wake::never())
            }
        }

        let mut hv = Hypervisor::with_pcpus(2);
        let server = hv.create_domain(
            "server",
            16,
            Box::new(Server {
                client: DomainId(1),
                port: None,
            }),
        );
        // Let the server allocate its port first.
        hv.run_for(Dur::micros(1));
        let obs = hv
            .observations()
            .iter()
            .find(|o| o.dom == server)
            .expect("server advertised port");
        let server_port = Port(obs.key.strip_prefix("port:").unwrap().parse().unwrap());
        let client = hv.create_domain(
            "client",
            16,
            Box::new(Client {
                server,
                server_port,
                port: None,
                remaining: 3,
            }),
        );
        let outcome = hv.run();
        assert_eq!(outcome, RunOutcome::Idle, "server still listening");
        assert_eq!(hv.exit_code(client), Some(0));
        assert!(hv.stats().notifications >= 6, "3 pings + 3 echoes");
    }

    /// Observation keys `dom` recorded, in order.
    fn keys(hv: &Hypervisor, dom: DomainId) -> Vec<&str> {
        let mine = hv.observations().iter().filter(|o| o.dom == dom);
        mine.map(|o| o.key.as_str()).collect()
    }

    /// Allocates two channels for `peer` on its first step, then blocks
    /// on `Wake::never()` and writes down every pending bit it finds.
    struct Holder {
        peer: DomainId,
        ports: Vec<Port>,
    }

    impl Guest for Holder {
        fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
            if self.ports.is_empty() {
                let peer = self.peer;
                self.ports = vec![env.evtchn_alloc_unbound(peer), env.evtchn_alloc_unbound(peer)];
            }
            for &p in &self.ports {
                if env.evtchn_consume(p).unwrap() {
                    env.observe(&format!("woke:{}", p.0));
                }
            }
            Step::Yield(Wake::never())
        }
    }

    /// Binds `holder`'s ports on its first step, then notifies them in
    /// `order` a millisecond apart, writing down what each notify
    /// returned.
    struct Pinger {
        holder: DomainId,
        order: Vec<Port>,
        bound: Option<Vec<Port>>,
    }

    impl Guest for Pinger {
        fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
            let (holder, order) = (self.holder, &self.order);
            let bound = self.bound.get_or_insert_with(|| {
                let ports = order.iter().rev();
                ports.map(|&p| env.evtchn_bind(holder, p).unwrap()).collect()
            });
            let Some(local) = bound.pop() else {
                return Step::Exit(0);
            };
            let sent = env.evtchn_notify(local);
            env.observe(&format!("notify:{sent:?}"));
            Step::Yield(Wake::at(env.now() + Dur::millis(1)))
        }
    }

    #[test]
    fn a_blocked_domain_wakes_on_any_channel_it_holds() {
        for order in [[Port(0), Port(1)], [Port(1), Port(0)]] {
            let mut hv = Hypervisor::with_pcpus(2);
            let peer = DomainId(1);
            let holder = hv.create_domain("holder", 16, Box::new(Holder { peer, ports: vec![] }));
            let pinger = Pinger {
                holder,
                order: order.to_vec(),
                bound: None,
            };
            hv.create_domain("pinger", 16, Box::new(pinger));
            assert_eq!(hv.run(), RunOutcome::Idle, "the holder blocks for good");
            let woke: Vec<String> = order.iter().map(|p| format!("woke:{}", p.0)).collect();
            assert_eq!(keys(&hv, holder), woke, "each notification woke it, in order");
        }
    }

    #[test]
    fn killing_a_domain_closes_its_channels() {
        /// Holds no channel; writes down every step it is given.
        struct Reborn;
        impl Guest for Reborn {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                env.observe("step");
                Step::Yield(Wake::never())
            }
        }
        let mut hv = Hypervisor::with_pcpus(2);
        hv.set_step_budget(100);
        let peer = DomainId(1);
        let victim = hv.create_domain("victim", 16, Box::new(Holder { peer, ports: vec![] }));
        let pinger = Pinger {
            holder: victim,
            order: vec![Port(0), Port(1)],
            bound: None,
        };
        let pinger = hv.create_domain("pinger", 16, Box::new(pinger));
        // The first notify lands while the victim lives; the second comes
        // after it was killed and restarted.
        hv.run_until(Time::ZERO + Dur::micros(500));
        assert_eq!(keys(&hv, victim), ["woke:0"]);
        hv.kill_domain(victim);
        hv.restart_domain(victim, Box::new(Reborn));
        assert_eq!(hv.run(), RunOutcome::Idle);
        assert_eq!(
            keys(&hv, pinger),
            ["notify:Ok(())", "notify:Err(Closed)"],
            "the dead domain's channel is closed"
        );
        assert_eq!(
            keys(&hv, victim),
            ["woke:0", "step"],
            "the new incarnation stepped once, at its boot"
        );
    }

    #[test]
    fn seal_hypercall_via_env() {
        use memory::{Mapping, MemError, Region};
        struct Sealer;
        impl Guest for Sealer {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                env.mmu_map(Mapping::for_region(Region::Text, 0, 4)).unwrap();
                env.mmu_map(Mapping::for_region(Region::Data, 4 * 4096, 4))
                    .unwrap();
                env.seal().unwrap();
                assert!(env.is_sealed());
                assert_eq!(
                    env.mmu_protect(4 * 4096, true, true),
                    Err(MemError::Sealed)
                );
                Step::Exit(0)
            }
        }
        let mut hv = Hypervisor::with_pcpus(1);
        let d = hv.create_domain("sealer", 16, Box::new(Sealer));
        hv.run();
        assert_eq!(hv.exit_code(d), Some(0));
        assert!(hv.address_space(d).is_sealed());
        assert_eq!(hv.address_space(d).rejected_updates(), 1);
    }

    #[test]
    fn hypercalls_are_charged_to_virtual_time() {
        struct Chatty;
        impl Guest for Chatty {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                for _ in 0..10 {
                    env.console_write("x");
                }
                Step::Exit(0)
            }
        }
        let mut hv = Hypervisor::with_pcpus(1);
        let d = hv.create_domain("c", 16, Box::new(Chatty));
        hv.run();
        assert_eq!(hv.console(d), "xxxxxxxxxx");
        let expected = hv.costs().hypercall * 10;
        assert_eq!(hv.now(), Time::ZERO + expected);
    }
}
