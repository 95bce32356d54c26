//! The Mirage language runtime — cooperative threading over virtual time
//! (paper §3.3).
//!
//! Mirage replaced the OCaml runtime's concurrency layer with Lwt: threads
//! are heap-allocated values scheduled cooperatively, the VM "is thus
//! either executing OCaml code or blocked, with no internal preemption or
//! asynchronous interrupts", and the run-loop is the only Xen-specific
//! piece. This crate reproduces that architecture:
//!
//! * [`Runtime`] — spawn lightweight threads (plain Rust futures), sleep on
//!   the virtual clock, await channels.
//! * [`channel`] — MPSC streams, [`channel::Notify`] edge triggers and
//!   [`channel::JoinHandle`]s.
//! * [`UnikernelGuest`] — the run-loop: services device state machines,
//!   runs one executor round (each runnable thread once), and repeats
//!   until a round polls nothing, then blocks in
//!   [`mirage_pvboot::domainpoll`] until its next timer or an event.
//!
//! # Example
//!
//! ```
//! use mirage_hypervisor::{Dur, Hypervisor};
//! use mirage_runtime::{Runtime, UnikernelGuest};
//!
//! let guest = UnikernelGuest::new(|_env, rt| {
//!     let rt2 = rt.clone();
//!     rt.spawn(async move {
//!         rt2.sleep(Dur::millis(10)).await;
//!         42
//!     })
//! });
//! let mut hv = Hypervisor::new();
//! let dom = hv.create_domain("demo", 32, Box::new(guest));
//! hv.run();
//! assert_eq!(hv.exit_code(dom), Some(42));
//! ```

pub mod channel;
mod exec;
pub mod select;
pub mod timer;

use std::future::Future;
use std::sync::Arc;

use mirage_testkit::sync::Mutex;

use mirage_hypervisor::{CostTable, DomainEnv, Dur, Guest, Step, Time};

use channel::{JoinHandle, OneshotState};
use exec::CoreHandle;
pub use exec::StallReport;
use timer::{Sleep, SleepCore, Timeout, YieldNow};

/// Handle to the cooperative executor. Cheap to clone; all clones share one
/// scheduler.
#[derive(Clone)]
pub struct Runtime {
    core: CoreHandle,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("live_tasks", &self.core.live_tasks())
            .finish()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

impl Runtime {
    /// A single-core runtime.
    pub fn new() -> Runtime {
        Runtime::smp(1)
    }

    /// A runtime with `cores` per-vCPU executors: one run queue, timer
    /// queue and virtual clock each. A task runs on the core it was
    /// spawned on for its whole life. `smp(1)` behaves exactly like the
    /// classic single-threaded executor.
    pub fn smp(cores: usize) -> Runtime {
        Runtime {
            core: CoreHandle::new(cores),
        }
    }

    /// Number of executor cores.
    pub fn cores(&self) -> usize {
        self.core.cores()
    }

    /// The core work charged right now would land on: the polling core
    /// inside a task, core 0 outside one.
    pub fn current_core(&self) -> usize {
        self.core.current_core()
    }

    /// Spawns a lightweight thread and returns a handle to await its
    /// result.
    ///
    /// Like Lwt threads, the thread runs only when the executor is driven.
    /// It runs on the spawning core: the polling core inside a task, core
    /// 0 outside one.
    pub fn spawn<T, F>(&self, fut: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        self.spawn_with(fut, self.current_core())
    }

    /// Spawns a lightweight thread on core `v`: it runs only on that
    /// core's queue. This is how per-queue net-stack workers keep a flow's
    /// TCB on exactly one core.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a valid core index.
    pub fn spawn_on<T, F>(&self, v: usize, fut: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        self.spawn_with(fut, v)
    }

    fn spawn_with<T, F>(&self, fut: F, home: usize) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        let state = Arc::new(Mutex::new(OneshotState {
            value: None,
            waker: None,
            done: false,
        }));
        let state2 = Arc::clone(&state);
        self.core.spawn(
            Box::pin(async move {
                let value = fut.await;
                let mut st = state2.lock();
                st.value = Some(value);
                st.done = true;
                if let Some(w) = st.waker.take() {
                    w.wake();
                }
            }),
            home,
        );
        JoinHandle { state }
    }

    /// Sleeps for `d` of virtual time.
    pub fn sleep(&self, d: Dur) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Sleeps until the absolute instant `t`.
    pub fn sleep_until(&self, t: Time) -> Sleep {
        Sleep {
            deadline: t,
            core: SleepCore(self.core.clone()),
            id: None,
        }
    }

    /// Current virtual time as the executor last observed it.
    pub fn now(&self) -> Time {
        self.core.now()
    }

    /// Yields to other runnable threads once.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow::new()
    }

    /// Bounds `fut` by a deadline `d` from now.
    pub fn timeout<F: Future + Unpin>(&self, d: Dur, fut: F) -> Timeout<F> {
        Timeout {
            inner: fut,
            sleep: self.sleep(d),
        }
    }

    /// Charges `d` of modelled CPU work from inside a task.
    pub fn charge(&self, d: Dur) {
        self.core.charge(d);
    }

    /// Charges the modelled CPU work `price` makes of the cost table, read
    /// in place: what a per-packet path uses instead of
    /// `charge(costs().…)`, which copies the table.
    pub fn charge_with(&self, price: impl FnOnce(&CostTable) -> Dur) {
        self.core.charge_with(price);
    }

    /// The hypervisor's cost table.
    pub fn costs(&self) -> CostTable {
        self.core.exec.costs.clone()
    }

    /// Number of live (incomplete) threads.
    pub fn live_tasks(&self) -> usize {
        self.core.live_tasks()
    }

    /// Threads spawned over the runtime's lifetime.
    pub fn spawned_total(&self) -> u64 {
        self.core.exec.sched.lock().spawned_total
    }

    /// Runs one executor round — every task runnable now is polled once,
    /// tasks it wakes wait for the next round — charging all task work to
    /// `env`. [`UnikernelGuest`] services its devices between rounds; this
    /// is the Xen-specific run-loop of §3.3.
    pub fn run_round(&self, env: &mut DomainEnv<'_>) -> StallReport {
        debug_assert_eq!(env.costs(), &self.core.exec.costs, "one cost table");
        // Route each executor core to its own vCPU charge lane; if the
        // domain has fewer vCPUs than the runtime has cores, the excess
        // cores stack onto the last lane (over-committed guest).
        let max_lane = env.vcpus() - 1;
        self.core.run_round(|core, charge| {
            let lane = core.min(max_lane);
            env.consume_on(lane, charge);
            env.now_on(lane)
        })
    }
}

/// A device driver's hook into the unikernel run-loop.
///
/// Device service code is *synchronous* — it runs with the [`DomainEnv`] in
/// hand, moves data between shared rings and runtime channels, and wakes
/// protocol threads via [`channel::Notify`]. (In Mirage terms: "only the
/// run-loop is Xen-specific, to interface with PVBoot".) A notification on
/// any event channel the device holds wakes the domain: the hypervisor
/// knows which those are, so the device does not list them. Like the
/// [`Guest`](mirage_hypervisor::Guest) that hosts it, a device is not
/// `Send`: it lives on the host thread that steps its domain.
pub trait DeviceService {
    /// Moves pending work between the hypervisor interface and the runtime.
    /// Returns `true` if any progress was made (more servicing may be
    /// needed after the executor runs).
    fn service(&mut self, env: &mut DomainEnv<'_>, rt: &Runtime) -> bool;
}

type BootFn =
    Box<dyn FnOnce(&mut DomainEnv<'_>, &Runtime) -> JoinHandle<i64> + Send + 'static>;

/// The standard Mirage guest: boot, then loop `{service devices; run each
/// runnable thread once}` until the main thread returns, exiting the VM
/// with its value. Threads that yield or are woken mid-round resume only
/// after the devices have been looked at again — Mirage's main loop runs
/// the Lwt threads, handles event-channel activations, and only then
/// resumes the yielded — so a frame written in one round is on the ring
/// (and the backend running on its own pCPU) while the next round runs.
pub struct UnikernelGuest {
    rt: Runtime,
    devices: Vec<Box<dyn DeviceService>>,
    boot: Option<BootFn>,
    main: Option<JoinHandle<i64>>,
}

impl std::fmt::Debug for UnikernelGuest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnikernelGuest")
            .field("devices", &self.devices.len())
            .field("booted", &self.main.is_some())
            .finish()
    }
}

impl UnikernelGuest {
    /// A guest whose `boot` closure runs on the first scheduling quantum
    /// (PVBoot's "jump to an entry function") and returns the main thread.
    pub fn new<F, Fut, T>(boot: F) -> UnikernelGuest
    where
        F: FnOnce(&mut DomainEnv<'_>, &Runtime) -> Fut + Send + 'static,
        Fut: IntoMainHandle<T>,
        T: Send + 'static,
    {
        UnikernelGuest::with_runtime(Runtime::new(), boot)
    }

    /// Same, over a caller-configured runtime (e.g. a multi-core one).
    pub fn with_runtime<F, Fut, T>(rt: Runtime, boot: F) -> UnikernelGuest
    where
        F: FnOnce(&mut DomainEnv<'_>, &Runtime) -> Fut + Send + 'static,
        Fut: IntoMainHandle<T>,
        T: Send + 'static,
    {
        UnikernelGuest {
            rt,
            devices: Vec::new(),
            boot: Some(Box::new(move |env, rt| boot(env, rt).into_main_handle(rt))),
            main: None,
        }
    }

    /// Registers a device driver with the run-loop.
    pub fn add_device(&mut self, dev: Box<dyn DeviceService>) {
        self.devices.push(dev);
    }

    /// The guest's runtime handle (for wiring devices before boot).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }
}

impl Drop for UnikernelGuest {
    fn drop(&mut self) {
        self.rt.core.shutdown();
    }
}

/// Conversion from a boot closure's return value into the main-thread
/// handle. Implemented for [`JoinHandle`] and for plain exit codes.
pub trait IntoMainHandle<T> {
    /// Wraps the value as the domain's main thread.
    fn into_main_handle(self, rt: &Runtime) -> JoinHandle<i64>;
}

impl IntoMainHandle<i64> for JoinHandle<i64> {
    fn into_main_handle(self, _rt: &Runtime) -> JoinHandle<i64> {
        self
    }
}

impl IntoMainHandle<i64> for i64 {
    fn into_main_handle(self, rt: &Runtime) -> JoinHandle<i64> {
        rt.spawn(async move { self })
    }
}

impl Guest for UnikernelGuest {
    fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
        if let Some(boot) = self.boot.take() {
            self.main = Some(boot(env, &self.rt));
        }
        let mut report;
        loop {
            // Devices are serviced on vCPU 0's lane; a multi-queue NIC
            // charges each queue's work on the vCPU its channel is bound to.
            let mut progressed = false;
            for dev in &mut self.devices {
                progressed |= dev.service(env, &self.rt);
            }
            report = self.rt.run_round(env);
            if !progressed && report.polls == 0 {
                break;
            }
        }
        if let Some(main) = &self.main {
            if main.is_done() {
                let code = main.try_take().unwrap_or(0);
                return Step::Exit(code);
            }
        }
        Step::Yield(mirage_pvboot::domainpoll(report.next_deadline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_hypervisor::Hypervisor;

    fn run_guest(guest: UnikernelGuest) -> (Hypervisor, mirage_hypervisor::DomainId) {
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain("test", 64, Box::new(guest));
        hv.run();
        (hv, dom)
    }

    #[test]
    fn dropping_the_hypervisor_reclaims_a_guest_parked_forever() {
        use std::sync::atomic::{AtomicBool, Ordering};

        struct Flag(Arc<AtomicBool>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }

        let pool = mirage_cstruct::PagePool::new(2);
        let page = pool.alloc().unwrap().freeze();
        let dropped = Arc::new(AtomicBool::new(false));
        let flag = Flag(Arc::clone(&dropped));
        let guest = UnikernelGuest::new(move |_env, rt| {
            let rt2 = rt.clone();
            // The parked task owns a runtime clone: the cycle under test.
            rt.spawn(async move {
                let _held = (page, flag);
                rt2.sleep_until(Time::MAX).await;
                0
            })
        });
        let (hv, dom) = run_guest(guest);
        assert_eq!(hv.exit_code(dom), None, "still parked");
        assert_eq!(pool.free_pages(), 1, "page pinned while the world lives");
        drop(hv);
        assert!(dropped.load(Ordering::SeqCst), "parked task was dropped");
        assert_eq!(pool.free_pages(), pool.capacity());
    }

    #[test]
    fn main_thread_exit_code_becomes_vm_exit_code() {
        let guest = UnikernelGuest::new(|_env, rt| {
            let rt = rt.clone();
            rt.clone().spawn(async move {
                rt.yield_now().await;
                99
            })
        });
        let (hv, dom) = run_guest(guest);
        assert_eq!(hv.exit_code(dom), Some(99));
    }

    #[test]
    fn sleeping_threads_wake_in_deadline_order() {
        let guest = UnikernelGuest::new(|_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let (tx, mut rx) = channel::channel::<u32>();
                for (i, ms) in [(1u32, 30u64), (2, 10), (3, 20)] {
                    let rt3 = rt2.clone();
                    let tx = tx.clone();
                    rt2.spawn(async move {
                        rt3.sleep(Dur::millis(ms)).await;
                        let _ = tx.send(i);
                    });
                }
                drop(tx);
                let mut order = Vec::new();
                while let Ok(v) = rx.recv().await {
                    order.push(v);
                }
                assert_eq!(order, vec![2, 3, 1], "woken by deadline, not spawn order");
                0
            })
        });
        let (hv, dom) = run_guest(guest);
        assert_eq!(hv.exit_code(dom), Some(0));
        assert_eq!(hv.now(), Time::ZERO + Dur::millis(30) + hv_overhead(&hv));
    }

    /// Scheduler/poll costs accumulated on top of the last timer deadline.
    fn hv_overhead(hv: &Hypervisor) -> Dur {
        hv.now().saturating_since(Time::ZERO + Dur::millis(30))
    }

    #[test]
    fn ten_thousand_sleeping_threads_all_complete() {
        let guest = UnikernelGuest::new(|_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let handles: Vec<_> = (0..10_000u64)
                    .map(|i| {
                        let rt3 = rt2.clone();
                        rt2.spawn(async move {
                            rt3.sleep(Dur::micros(500 + (i % 1000))).await;
                            1u64
                        })
                    })
                    .collect();
                let mut sum = 0;
                for h in handles {
                    sum += h.await;
                }
                assert_eq!(sum, 10_000);
                0
            })
        });
        let (hv, dom) = run_guest(guest);
        assert_eq!(hv.exit_code(dom), Some(0));
    }

    #[test]
    fn timeout_fires_when_inner_is_slow() {
        let guest = UnikernelGuest::new(|_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let slow = Box::pin(rt2.sleep(Dur::secs(10)));
                match rt2.timeout(Dur::millis(1), slow).await {
                    Err(timer::Late) => 0,
                    Ok(()) => 1,
                }
            })
        });
        let (hv, dom) = run_guest(guest);
        assert_eq!(hv.exit_code(dom), Some(0));
        assert!(hv.now() < Time::ZERO + Dur::secs(1), "did not wait 10s");
    }

    #[test]
    fn channels_carry_data_between_threads() {
        let guest = UnikernelGuest::new(|_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let (tx, mut rx) = channel::channel::<u64>();
                let producer = rt2.spawn(async move {
                    for i in 0..100 {
                        tx.send(i).unwrap();
                    }
                });
                let mut sum = 0;
                for _ in 0..100 {
                    sum += rx.recv().await.unwrap();
                }
                producer.await;
                assert!(rx.recv().await.is_err(), "channel closed after producer");
                sum as i64
            })
        });
        let (hv, dom) = run_guest(guest);
        assert_eq!(hv.exit_code(dom), Some(4950));
    }

    #[test]
    fn notify_wakes_waiting_thread() {
        let guest = UnikernelGuest::new(|_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let n = channel::Notify::new();
                let n2 = n.clone();
                let rt3 = rt2.clone();
                let waiter = rt2.spawn(async move {
                    n2.notified().await;
                    rt3.now()
                });
                rt2.sleep(Dur::millis(7)).await;
                n.notify_one();
                let woke_at = waiter.await;
                assert!(woke_at >= Time::ZERO + Dur::millis(7));
                0
            })
        });
        let (hv, dom) = run_guest(guest);
        assert_eq!(hv.exit_code(dom), Some(0));
    }

    #[test]
    fn deterministic_schedules_are_reproducible() {
        let run = || {
            let guest = UnikernelGuest::new(|_env, rt| {
                let rt2 = rt.clone();
                rt.spawn(async move {
                    let mut acc = 0u64;
                    for i in 0..50u64 {
                        let rt3 = rt2.clone();
                        let h = rt2.spawn(async move {
                            rt3.sleep(Dur::micros(i * 13 % 97)).await;
                            i
                        });
                        acc += h.await;
                    }
                    acc as i64
                })
            });
            let mut hv = Hypervisor::new();
            let dom = hv.create_domain("det", 64, Box::new(guest));
            hv.run();
            (hv.exit_code(dom), hv.now(), hv.stats().steps)
        };
        assert_eq!(run(), run(), "identical schedule on every run");
    }

    #[test]
    fn plain_exit_code_boot_closure() {
        let guest = UnikernelGuest::new(|_env, _rt| 5i64);
        let (hv, dom) = run_guest(guest);
        assert_eq!(hv.exit_code(dom), Some(5));
    }

    #[test]
    fn smp_pinned_tasks_stay_on_their_core() {
        let rt = Runtime::smp(4);
        let rt_outer = rt.clone();
        let guest = UnikernelGuest::with_runtime(rt, |_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let mut handles = Vec::new();
                for v in 0..4usize {
                    let rt3 = rt2.clone();
                    handles.push(rt2.spawn_on(v, async move {
                        // Re-yield a few times: the observed core must
                        // never change for a pinned task.
                        let mut cores = Vec::new();
                        for _ in 0..3 {
                            cores.push(rt3.current_core());
                            rt3.yield_now().await;
                        }
                        assert!(cores.iter().all(|&c| c == v), "pinned to {v}, saw {cores:?}");
                        v as u64
                    }));
                }
                let mut sum = 0;
                for h in handles {
                    sum += h.await;
                }
                sum as i64
            })
        });
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain_vcpus("smp", 64, Box::new(guest), 4);
        hv.run();
        assert_eq!(hv.exit_code(dom), Some(6));
        assert_eq!(rt_outer.cores(), 4);
    }

    #[test]
    fn smp_cores_charge_parallel_lanes() {
        // Two 5ms CPU-bound tasks pinned to different cores of a 2-vCPU
        // domain must overlap in virtual time: the domain finishes in
        // ~5ms, not 10ms.
        let rt = Runtime::smp(2);
        let guest = UnikernelGuest::with_runtime(rt, |_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let mut handles = Vec::new();
                for v in 0..2usize {
                    let rt3 = rt2.clone();
                    handles.push(rt2.spawn_on(v, async move {
                        rt3.charge(Dur::millis(5));
                    }));
                }
                for h in handles {
                    h.await;
                }
                0
            })
        });
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain_vcpus("par", 64, Box::new(guest), 2);
        hv.run();
        assert_eq!(hv.exit_code(dom), Some(0));
        assert!(
            hv.now() < Time::ZERO + Dur::millis(8),
            "lanes must overlap: finished at {:?}",
            hv.now()
        );
        assert!(hv.now() >= Time::ZERO + Dur::millis(5));
    }

    #[test]
    fn smp_schedule_is_deterministic() {
        let run = || {
            let rt = Runtime::smp(4);
            let guest = UnikernelGuest::with_runtime(rt, |_env, rt| {
                let rt2 = rt.clone();
                rt.spawn(async move {
                    let mut acc = 0u64;
                    for i in 0..40u64 {
                        let rt3 = rt2.clone();
                        let h = rt2.spawn(async move {
                            rt3.charge(Dur::micros(i % 7));
                            rt3.sleep(Dur::micros(i * 13 % 97)).await;
                            i
                        });
                        acc += h.await;
                    }
                    acc as i64
                })
            });
            let mut hv = Hypervisor::new();
            let dom = hv.create_domain_vcpus("det", 64, Box::new(guest), 4);
            hv.run();
            (hv.exit_code(dom), hv.now(), hv.stats().steps)
        };
        assert_eq!(run(), run(), "identical SMP schedule on every run");
    }

    // --- executor rounds ---------------------------------------------------

    type Log = Arc<Mutex<Vec<String>>>;

    /// A device with nothing to do that writes down when it was asked.
    struct Probe(Log);

    impl DeviceService for Probe {
        fn service(&mut self, _env: &mut DomainEnv<'_>, _rt: &Runtime) -> bool {
            self.0.lock().push("svc".to_owned());
            false
        }
    }

    /// Runs `boot` on `rt` beside a [`Probe`]; returns the log of service
    /// calls and whatever the tasks wrote, in order.
    fn run_probed<F>(rt: Runtime, vcpus: usize, boot: F) -> Vec<String>
    where
        F: FnOnce(&Runtime, Log) -> JoinHandle<i64> + Send + 'static,
    {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let task_log = Arc::clone(&log);
        let mut guest = UnikernelGuest::with_runtime(rt, move |_env, rt| boot(rt, task_log));
        guest.add_device(Box::new(Probe(Arc::clone(&log))));
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain_vcpus("rounds", 64, Box::new(guest), vcpus);
        hv.run();
        assert_eq!(hv.exit_code(dom), Some(0));
        let out = log.lock().clone();
        out
    }

    /// The task entries between consecutive service calls: one per round.
    fn rounds(log: &[String]) -> Vec<Vec<String>> {
        log.split(|e| e == "svc")
            .filter(|r| !r.is_empty())
            .map(<[String]>::to_vec)
            .collect()
    }

    #[test]
    fn devices_are_serviced_between_a_yielding_tasks_polls() {
        const YIELDS: usize = 50;
        let log = run_probed(Runtime::new(), 1, |rt, _log| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                for _ in 0..YIELDS {
                    rt2.yield_now().await;
                }
                0
            })
        });
        let services = log.iter().filter(|e| *e == "svc").count();
        assert!(
            services >= YIELDS,
            "a yield hands the CPU to the run loop: {services} services for {YIELDS} yields"
        );
    }

    #[test]
    fn task_woken_mid_round_runs_in_the_next_round() {
        let log = run_probed(Runtime::new(), 1, |rt, log| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let bell = channel::Notify::new();
                let (bell2, log2) = (bell.clone(), Arc::clone(&log));
                let waiter = rt2.spawn(async move {
                    log2.lock().push("waiter:parks".to_owned());
                    bell2.notified().await;
                    log2.lock().push("waiter:woken".to_owned());
                });
                // Let the waiter park first.
                rt2.yield_now().await;
                log.lock().push("ringer:rings".to_owned());
                bell.notify_one();
                rt2.yield_now().await;
                log.lock().push("ringer:resumes".to_owned());
                waiter.await;
                0
            })
        });
        let rounds = rounds(&log);
        let ring = rounds
            .iter()
            .position(|r| r.contains(&"ringer:rings".to_owned()))
            .expect("ringer ran");
        assert!(
            !rounds[ring].contains(&"waiter:woken".to_owned()),
            "woken in round {ring}, must not run in it: {rounds:?}"
        );
        // Next round: the waiter (woken first) and then the yielded ringer.
        assert_eq!(rounds[ring + 1], ["waiter:woken", "ringer:resumes"]);
    }

    #[test]
    fn self_waking_task_starves_neither_device_nor_timer() {
        const SPINS: usize = 1000;
        let log = run_probed(Runtime::new(), 1, |rt, log| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let (rt3, log3) = (rt2.clone(), Arc::clone(&log));
                let sleeper = rt2.spawn(async move {
                    rt3.sleep(Dur::micros(20)).await;
                    log3.lock().push("timer".to_owned());
                });
                // A micro-second of work per poll, re-queued at once.
                for _ in 0..SPINS {
                    rt2.charge(Dur::micros(1));
                    rt2.yield_now().await;
                }
                log.lock().push("spinner:done".to_owned());
                sleeper.await;
                0
            })
        });
        let at = |what: &str| log.iter().position(|e| e == what).expect("logged");
        assert!(
            at("timer") < at("spinner:done"),
            "the timer fired while the spinner spun"
        );
        let services_before_timer = log[..at("timer")].iter().filter(|e| *e == "svc").count();
        assert!(
            (15..=40).contains(&services_before_timer),
            "20 us of 1 us rounds, each with a device service: {services_before_timer}"
        );
    }

    #[test]
    fn idle_guest_yields_after_one_empty_round() {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let mut guest = UnikernelGuest::new(|_env, rt| {
            // Parks forever: no timer, no port.
            rt.spawn(async move {
                channel::Notify::new().notified().await;
                0
            })
        });
        guest.add_device(Box::new(Probe(Arc::clone(&log))));
        let rt = guest.runtime().clone();
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain("idle", 64, Box::new(guest));
        hv.run();
        let (services, steps) = (log.lock().len(), hv.stats().steps);
        hv.wake_external(dom);
        hv.run();
        assert_eq!(hv.stats().steps, steps + 1, "one quantum per spurious wake");
        assert_eq!(
            log.lock().len(),
            services + 1,
            "one device pass, one empty round"
        );
        assert_eq!(
            rt.live_tasks(),
            1,
            "the parked task was not polled to completion"
        );
    }

    /// Eight pinned yielders (two per core) beside a burst of unpinned
    /// tasks spawned from core 0, everything logging `(task, core)` at
    /// each poll.
    fn smp_round_log() -> Vec<String> {
        run_probed(Runtime::smp(4), 4, |rt, log| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let mut handles = Vec::new();
                for t in 0..8usize {
                    let (rt3, log3) = (rt2.clone(), Arc::clone(&log));
                    handles.push(rt2.spawn_on(t % 4, async move {
                        for _ in 0..6 {
                            log3.lock().push(format!("pin{t}@{}", rt3.current_core()));
                            rt3.yield_now().await;
                        }
                    }));
                }
                for t in 0..16usize {
                    let (rt3, log3) = (rt2.clone(), Arc::clone(&log));
                    handles.push(rt2.spawn(async move {
                        // Outlive the pinned tasks: cores 1-3 fall idle
                        // while core 0 still holds this backlog.
                        for _ in 0..12 {
                            log3.lock().push(format!("free{t}@{}", rt3.current_core()));
                            rt3.charge(Dur::micros(5));
                            rt3.yield_now().await;
                        }
                    }));
                }
                for h in handles {
                    h.await;
                }
                0
            })
        })
    }

    #[test]
    fn smp_rounds_poll_each_task_once_on_its_core_and_replay() {
        let log = smp_round_log();
        let mut pinned_polls = 0;
        for round in rounds(&log) {
            let mut seen = std::collections::HashSet::new();
            for entry in &round {
                let (task, core) = entry.split_once('@').expect("task@core");
                assert!(
                    seen.insert(task),
                    "{task} polled twice in one round: {round:?}"
                );
                let core: usize = core.parse().expect("core");
                if let Some(t) = task.strip_prefix("pin") {
                    let t: usize = t.parse().expect("task number");
                    assert_eq!(core, t % 4, "{entry} off its core");
                    pinned_polls += 1;
                } else {
                    assert_eq!(core, 0, "{entry} left the core it was spawned on");
                }
            }
            // While any pinned task is alive they all are (same length):
            // a round that polls one polls all eight.
            let pinned = seen.iter().filter(|t| t.starts_with("pin")).count();
            assert!(pinned == 0 || pinned == 8, "partial round: {round:?}");
        }
        assert_eq!(pinned_polls, 8 * 6);
        assert_eq!(log, smp_round_log(), "same seed, same poll order");
    }

    #[test]
    fn smp1_polls_in_fifo_rounds_without_a_schedule_draw() {
        let order = |rt: Runtime| {
            let log = run_probed(rt, 1, |rt, log| {
                let rt2 = rt.clone();
                rt.spawn(async move {
                    log.lock().push("main".to_owned());
                    let mut handles = Vec::new();
                    for t in 0..3usize {
                        let (rt3, log3) = (rt2.clone(), Arc::clone(&log));
                        handles.push(rt2.spawn(async move {
                            for _ in 0..3 {
                                log3.lock().push(format!("t{t}"));
                                rt3.yield_now().await;
                            }
                        }));
                    }
                    for h in handles {
                        h.await;
                    }
                    log.lock().push("main".to_owned());
                    0
                })
            });
            rounds(&log)
        };
        let fifo: Vec<Vec<String>> = [
            &["main"][..],
            &["t0", "t1", "t2"],
            &["t0", "t1", "t2"],
            &["t0", "t1", "t2"],
            &["main"],
        ]
        .iter()
        .map(|r| r.iter().map(|s| (*s).to_owned()).collect())
        .collect();
        assert_eq!(order(Runtime::smp(1)), fifo);
        assert_eq!(
            order(Runtime::new()),
            fifo,
            "the single-core executor is smp(1)"
        );
    }
}
