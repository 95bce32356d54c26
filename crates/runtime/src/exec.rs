//! The cooperative task executor — Mirage's Lwt analogue (paper §3.3),
//! scaled out to per-vCPU cores.
//!
//! "Written in pure OCaml, Lwt threads are heap-allocated values, with only
//! the thread main loop requiring a C binding to poll for external events."
//! Here, lightweight threads are plain Rust `Future`s polled by a
//! cooperative executor; "the VM is thus either executing OCaml code or
//! blocked, with no internal preemption or asynchronous interrupts."
//! It runs in *rounds* ([`CoreHandle::run_round`]): each task runnable at
//! the start of a round is polled once, and the run-loop looks at its
//! devices before the tasks that round woke get their turn.
//!
//! An SMP runtime holds one [`CoreState`] per vCPU — its own run queue and
//! timer queue — under a single scheduler lock, and beside the lock one
//! [`CoreClock`] per vCPU: its virtual clock and the charge pending on it,
//! which `now()` and every charge touch without taking the lock (the
//! simulation itself stays on one OS thread; parallelism is expressed in
//! *virtual* time through the hypervisor's per-vCPU charge lanes). Tasks
//! have a home core, the one they were spawned on, and never leave it:
//! charges, sleeps and child spawns from inside a task route to the core
//! that is polling it. Which core with work polls next is a seeded draw,
//! so `MIRAGE_TEST_SEED` reproduces the exact interleaving byte-for-byte.
//!
//! Every poll charges [`CostTable::thread_switch`] to the polling core's
//! virtual time.

use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use mirage_testkit::rng::Rng;
use mirage_testkit::sync::Mutex;
use mirage_testkit::wheel::{TimerId, TimerWheel};

use mirage_hypervisor::{CostTable, Dur, Time};

pub(crate) type TaskId = u64;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

struct TaskEntry {
    fut: Option<BoxFuture>,
    queued: bool,
    /// Core whose run queue wakes of this task land on.
    home: usize,
    /// Made at the first poll and handed to every later one.
    waker: Option<Waker>,
}

/// One vCPU's queues: runnable tasks and timers.
struct CoreState {
    run_queue: VecDeque<TaskId>,
    /// Pending sleeps, firing in `(deadline, registration)` order — the
    /// paper's timer priority queue (§3.3).
    timers: TimerWheel<Waker>,
}

/// One vCPU's virtual clock and the time charged to it since the run loop
/// last drained it, in nanoseconds. The clocks are read and charged
/// without the scheduler lock; the run loop drains and advances them at
/// the same points it always has, so virtual time does not move. Relaxed
/// suffices: each is a lone number, published with nothing else.
struct CoreClock {
    now: AtomicU64,
    charge: AtomicU64,
}

impl CoreClock {
    fn now(&self) -> Time {
        Time::from_nanos(self.now.load(Ordering::Relaxed))
    }

    /// Takes the pending charge; nothing pending costs no read-modify-write.
    fn take_charge(&self) -> Dur {
        if self.charge.load(Ordering::Relaxed) == 0 {
            return Dur::ZERO;
        }
        Dur::nanos(self.charge.swap(0, Ordering::Relaxed))
    }
}

pub(crate) struct Sched {
    cores: Vec<CoreState>,
    tasks: HashMap<TaskId, TaskEntry>,
    next_task: TaskId,
    pub(crate) spawned_total: u64,
    /// Seeded schedule source: which core with round-start work left polls
    /// next, so a multi-core run is a pure function of `MIRAGE_TEST_SEED`.
    rng: Rng,
    /// A round's scratch, kept so that a round allocates nothing: the
    /// wakers of the timers it fired, and what each core owes it.
    fired: Vec<Waker>,
    owed: Vec<usize>,
}

impl Sched {
    fn new(cores: usize) -> Sched {
        Sched {
            cores: (0..cores)
                .map(|_| CoreState {
                    run_queue: VecDeque::new(),
                    timers: TimerWheel::new(),
                })
                .collect(),
            tasks: HashMap::new(),
            next_task: 0,
            spawned_total: 0,
            rng: Rng::for_stream(mirage_testkit::test_seed(), "smp-exec"),
            fired: Vec::new(),
            owed: Vec::with_capacity(cores),
        }
    }
}

/// What the executor's handles share: the scheduler behind its lock, and
/// beside it everything a charge or a clock read touches.
pub(crate) struct Executor {
    pub(crate) sched: Mutex<Sched>,
    clocks: Box<[CoreClock]>,
    /// Core currently polling a task, or [`Executor::IDLE`] — charges,
    /// `now()` reads and timer registrations from inside the task route
    /// here, and to core 0 while it is idle.
    executing: AtomicUsize,
    /// The hypervisor's cost table. It has no setter, so pricing reads it
    /// in place and nothing can change it under a charge.
    pub(crate) costs: CostTable,
}

impl Executor {
    const IDLE: usize = usize::MAX;
}

/// Shared handle to the executor. Spawns and charges made *outside* any
/// task (device service code, harnesses) land on core 0.
#[derive(Clone)]
pub(crate) struct CoreHandle {
    pub(crate) exec: Arc<Executor>,
}

struct TaskWaker {
    id: TaskId,
    exec: std::sync::Weak<Executor>,
}

impl std::task::Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        if let Some(exec) = self.exec.upgrade() {
            let mut s = exec.sched.lock();
            if let Some(entry) = s.tasks.get_mut(&self.id) {
                if !entry.queued {
                    entry.queued = true;
                    let home = entry.home;
                    s.cores[home].run_queue.push_back(self.id);
                }
            }
        }
    }
}

/// Report from one executor round (the state `domainpoll` needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallReport {
    /// Earliest pending timer on any core, if any.
    pub next_deadline: Option<Time>,
    /// Tasks still alive (runnable or blocked).
    pub live_tasks: usize,
    /// Futures polled during this round (all cores).
    pub polls: u64,
}

impl CoreHandle {
    pub(crate) fn new(cores: usize) -> CoreHandle {
        assert!(cores > 0, "an executor needs at least one core");
        let clock = || CoreClock {
            now: AtomicU64::new(0),
            charge: AtomicU64::new(0),
        };
        CoreHandle {
            exec: Arc::new(Executor {
                sched: Mutex::new(Sched::new(cores)),
                clocks: (0..cores).map(|_| clock()).collect(),
                executing: AtomicUsize::new(Executor::IDLE),
                costs: CostTable::defaults(),
            }),
        }
    }

    pub(crate) fn cores(&self) -> usize {
        self.exec.clocks.len()
    }

    /// The core a charge made right now would land on (the executing core
    /// inside a task, core 0 outside one).
    pub(crate) fn current_core(&self) -> usize {
        match self.exec.executing.load(Ordering::Relaxed) {
            Executor::IDLE => 0,
            v => v,
        }
    }

    /// Spawns a task on core `home`, where it stays.
    pub(crate) fn spawn(&self, fut: BoxFuture, home: usize) -> TaskId {
        let mut s = self.exec.sched.lock();
        assert!(home < s.cores.len(), "core {home} out of range");
        let id = s.next_task;
        s.next_task += 1;
        s.spawned_total += 1;
        s.tasks.insert(
            id,
            TaskEntry {
                fut: Some(fut),
                queued: true,
                home,
                waker: None,
            },
        );
        s.cores[home].run_queue.push_back(id);
        id
    }

    /// Arms a timer on the current core's queue; the returned pair lets
    /// the sleep future refresh its waker on re-poll and disarm itself on
    /// drop.
    pub(crate) fn register_timer(&self, at: Time, waker: Waker) -> (usize, TimerId) {
        let v = self.current_core();
        (
            v,
            self.exec.sched.lock().cores[v]
                .timers
                .insert(at.as_nanos(), waker),
        )
    }

    /// Refreshes the waker of a pending timer. Returns `false` if the
    /// timer already fired (the caller should re-register).
    pub(crate) fn update_timer(&self, id: (usize, TimerId), waker: &Waker) -> bool {
        let mut s = self.exec.sched.lock();
        match s.cores[id.0].timers.get_mut(id.1) {
            Some(slot) => {
                if !slot.will_wake(waker) {
                    *slot = waker.clone();
                }
                true
            }
            None => false,
        }
    }

    /// Disarms a timer whose sleep future was dropped or completed.
    pub(crate) fn cancel_timer(&self, id: (usize, TimerId)) {
        self.exec.sched.lock().cores[id.0].timers.cancel(id.1);
    }

    fn clock(&self) -> &CoreClock {
        &self.exec.clocks[self.current_core()]
    }

    pub(crate) fn now(&self) -> Time {
        self.clock().now()
    }

    pub(crate) fn charge(&self, d: Dur) {
        self.clock()
            .charge
            .fetch_add(d.as_nanos(), Ordering::Relaxed);
    }

    /// Charges what `price` makes of the cost table, which it sees by
    /// reference.
    pub(crate) fn charge_with(&self, price: impl FnOnce(&CostTable) -> Dur) {
        self.charge(price(&self.exec.costs));
    }

    /// One executor round — the unit of Mirage's main loop (§3.3): fire
    /// expired timers, then poll each task that is runnable *now* exactly
    /// once. A task woken (or yielding) during the round lands behind the
    /// round-start entries of its queue and runs in the next round, so the
    /// caller gets control back — to service devices — after a bounded
    /// amount of work however the tasks wake each other.
    ///
    /// `drain_charge(core, charge)` reports a core's virtual time as a
    /// function of the charge it accumulated, so CPU-bound work delays
    /// that core's timers exactly as it would on real silicon — and only
    /// that core's: the lanes advance independently. Which core with
    /// round-start work left polls next is a seeded draw, giving SMP runs
    /// a reproducible but adversarially shuffled interleaving.
    ///
    /// A round allocates nothing once warm, and takes the scheduler lock
    /// twice to start and once per poll (twice for a poll that completes
    /// its task).
    pub(crate) fn run_round(
        &self,
        mut drain_charge: impl FnMut(usize, Dur) -> Time,
    ) -> StallReport {
        let exec = &*self.exec;
        let thread_switch = exec.costs.thread_switch.as_nanos();
        // Advance every core's clock (device service and harness code
        // charge outside tasks), then fire its expired timers: the tasks
        // they wake belong to this round.
        let mut fired = {
            let mut s = exec.sched.lock();
            let mut fired = std::mem::take(&mut s.fired);
            for (v, (core, clock)) in s.cores.iter_mut().zip(&*exec.clocks).enumerate() {
                let now = drain_charge(v, clock.take_charge());
                clock.now.store(now.as_nanos(), Ordering::Relaxed);
                core.timers.advance(now.as_nanos(), |_, w| fired.push(w));
            }
            fired
        };
        // Wake outside the lock (TaskWaker::wake re-locks), in the order
        // the cores fired them.
        for w in fired.drain(..) {
            w.wake();
        }
        // What each core owes this round: its queue as it stands now.
        let mut s = exec.sched.lock();
        s.fired = fired;
        let Sched { cores, owed, .. } = &mut *s;
        owed.clear();
        owed.extend(cores.iter().map(|c| c.run_queue.len()));

        let mut polls = 0u64;
        loop {
            // Take the future out so polling happens without the lock.
            let ready = s.owed.iter().filter(|&&n| n > 0).count();
            let pick = match ready {
                0 => break,
                1 => 0,
                n => s.rng.gen_index(n),
            };
            let core = (0..s.owed.len())
                .filter(|&v| s.owed[v] > 0)
                .nth(pick)
                .expect("picked among the ready cores");
            s.owed[core] -= 1;
            // Wakes only push behind the round-start entries, so the
            // front of the queue is still one of them.
            let id = s.cores[core]
                .run_queue
                .pop_front()
                .expect("owed entry queued");
            let Some(entry) = s.tasks.get_mut(&id) else {
                continue;
            };
            entry.queued = false;
            let Some(mut fut) = entry.fut.take() else {
                continue;
            };
            let waker = entry
                .waker
                .get_or_insert_with(|| {
                    let exec = Arc::downgrade(&self.exec);
                    Waker::from(Arc::new(TaskWaker { id, exec }))
                })
                .clone();
            exec.executing.store(core, Ordering::Relaxed);
            exec.clocks[core]
                .charge
                .fetch_add(thread_switch, Ordering::Relaxed);
            drop(s);

            polls += 1;
            let outcome = fut.as_mut().poll(&mut Context::from_waker(&waker));
            exec.executing.store(Executor::IDLE, Ordering::Relaxed);
            // The next task on this core starts where this one stopped.
            let clock = &exec.clocks[core];
            let now = drain_charge(core, clock.take_charge());
            clock.now.store(now.as_nanos(), Ordering::Relaxed);
            s = exec.sched.lock();
            match outcome {
                Poll::Ready(()) => {
                    s.tasks.remove(&id);
                    // A finished future drops outside the lock: its
                    // destructors disarm timers and wake peers, both of
                    // which take it again.
                    drop(s);
                    drop(fut);
                    s = exec.sched.lock();
                }
                Poll::Pending => {
                    if let Some(entry) = s.tasks.get_mut(&id) {
                        entry.fut = Some(fut);
                    }
                }
            }
        }
        let next_deadline = s
            .cores
            .iter()
            .filter_map(|c| c.timers.next_deadline())
            .min()
            .map(Time::from_nanos);
        StallReport {
            next_deadline,
            live_tasks: s.tasks.len(),
            polls,
        }
    }

    pub(crate) fn live_tasks(&self) -> usize {
        self.exec.sched.lock().tasks.len()
    }

    /// Drops every task, armed timer and queued wake. A parked task holds
    /// clones of this handle and the scheduler holds the task, so without
    /// this a dropped guest would keep itself — and every page, socket and
    /// channel its tasks own — alive for the life of the process.
    pub(crate) fn shutdown(&self) {
        // Futures drop outside the lock: their destructors disarm timers
        // and wake peers, both of which take it again.
        loop {
            let tasks = std::mem::take(&mut self.exec.sched.lock().tasks);
            if tasks.is_empty() {
                break;
            }
        }
        for core in &mut self.exec.sched.lock().cores {
            core.run_queue.clear();
            core.timers = TimerWheel::new();
        }
    }
}
