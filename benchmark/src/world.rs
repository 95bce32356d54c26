//! What every workload's world is built from: the host↔guest handshake
//! that separates set-up from the measured phase, the counter sources the
//! host thread can read, and the seeded input generators.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mirage::cstruct::copy_counters;
use mirage::devices::netfront::CopyDiscipline;
use mirage::devices::{Backend, DriverStats, NetDriver, NetHandle, NetemStats};
use mirage::hypervisor::{DomainId, Dur, Hypervisor, RunOutcome, Time};
use mirage::net::stack::StackStats;
use mirage::net::tcp::TcpStats;
use mirage::runtime::channel::Sender;
use mirage::runtime::Runtime;
use mirage::storage::block::BoxFuture;
use mirage::storage::btree::TreeStats;
use mirage::storage::{BlockError, BlockIo};
use mirage_testkit::rng::Rng;
use mirage_testkit::sync::Mutex as KitMutex;

use crate::hist::Histogram;
use crate::span;

/// Bytes in one TCP op (the MSS every `tcp_*` per-op figure divides by).
pub const MSS: usize = 1460;

// ------------------------------------------------------------------ phases

/// A host-side latch a guest task waits on. The host opens it between
/// `Hypervisor::run_until` slices, so nothing polls and no timer fires on
/// the gate's account.
pub struct Gate {
    tx: Sender<()>,
    dom: DomainId,
}

impl Gate {
    /// A gate whose receiving end was given to a task of `dom`.
    pub fn new(tx: Sender<()>, dom: DomainId) -> Gate {
        Gate { tx, dom }
    }

    pub fn open(&self, hv: &mut Hypervisor) {
        let _ = self.tx.send(());
        hv.wake_external(self.dom);
    }
}

/// Phase flags shared between the host loop and the guests of one world.
#[derive(Default)]
pub struct Control {
    ready: AtomicUsize,
    done: AtomicUsize,
    reported: AtomicUsize,
}

impl Control {
    /// A domain finished its set-up and is parked on its start gate.
    pub fn mark_ready(&self) {
        self.ready.fetch_add(1, Ordering::SeqCst);
    }

    /// A party finished its share of the measured phase.
    pub fn mark_done(&self) {
        self.done.fetch_add(1, Ordering::SeqCst);
    }

    /// A stack published its end-of-run stats.
    pub fn mark_reported(&self) {
        self.reported.fetch_add(1, Ordering::SeqCst);
    }
}

/// One built world, ready to be driven through its phases.
pub struct World {
    pub hv: Hypervisor,
    pub control: Arc<Control>,
    /// How many `mark_ready` / `mark_done` / `mark_reported` calls end
    /// the respective phase.
    pub ready_target: usize,
    pub done_target: usize,
    /// Opened when set-up is complete: the measured phase starts.
    pub start: Vec<Gate>,
    /// Opened after the measured phase: stacks publish their stats.
    pub report: Vec<Gate>,
    pub sources: Sources,
    /// Merges and verifies what the guests recorded, once all phases ran.
    pub finish: Box<dyn FnOnce() -> Outcome>,
}

/// Counter handles the host thread can read between slices.
#[derive(Default)]
pub struct Sources {
    pub nets: Vec<NetProbe>,
    pub driver: Option<Arc<KitMutex<DriverStats>>>,
    pub netem: Option<Arc<KitMutex<NetemStats>>>,
    pub runtimes: Vec<Runtime>,
    /// Published by the storage-owning guest once its tree exists.
    pub tree: TreeSlot,
}

pub type TreeSlot = Arc<Mutex<Option<Box<dyn Fn() -> TreeStats + Send>>>>;

/// What the guests hand back for one repetition, merged.
#[derive(Default)]
pub struct Measured {
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
    pub wall_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Application payload bytes moved by the attempted ops.
    pub payload_bytes: u64,
    /// Virtual ns per op (per 16 KiB delivered on `tcp_*`).
    pub lat: Histogram,
    /// `tree.get` / `tree.set` calls made by the measured ops.
    pub storage_gets: u64,
    pub storage_sets: u64,
    /// Host ns each [`WINDOWS`]th of the ops took (see [`Windows`]).
    pub window_ns: Vec<u64>,
}

/// Everything one repetition produced besides host-read counters.
#[derive(Default)]
pub struct Outcome {
    pub measured: Measured,
    /// Sums over every `TcpStream` endpoint the benchmark held.
    pub tcp: TcpStats,
    pub stacks: Vec<StackStats>,
    /// `(connections, requests, errors)` of the HTTP server.
    pub http: Option<(u64, u64, u64)>,
    /// `(queries, memo_hits, malformed)` of the DNS server.
    pub dns: Option<(u64, u64, u64)>,
}

/// Adds `s` into `total` field by field (`cwnd` is a gauge: dropped).
pub fn add_tcp(total: &mut TcpStats, s: &TcpStats) {
    total.segs_in += s.segs_in;
    total.segs_out += s.segs_out;
    total.bytes_in += s.bytes_in;
    total.bytes_out += s.bytes_out;
    total.rto_retransmits += s.rto_retransmits;
    total.fast_retransmits += s.fast_retransmits;
    total.persist_probes += s.persist_probes;
    total.ooo_evictions += s.ooo_evictions;
    total.overlap_conflicts += s.overlap_conflicts;
    total.injections_dropped += s.injections_dropped;
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Monotone counters read by the host thread; a repetition's
        /// figures are `after.since(&before)`.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters { $(pub $field: u64),* }

        impl Counters {
            pub fn since(&self, before: &Counters) -> Counters {
                Counters { $($field: self.$field - before.$field),* }
            }

            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($field: self.$field + other.$field),* }
            }

            /// The fields in declaration order.
            pub fn to_vec(self) -> Vec<u64> {
                vec![$(self.$field),*]
            }

            /// The inverse of [`to_vec`](Self::to_vec).
            pub fn from_slice(values: &[u64]) -> Option<Counters> {
                let mut it = values.iter().copied();
                let c = Counters { $($field: it.next()?),* };
                it.next().is_none().then_some(c)
            }
        }
    };
}

counters!(
    hypercalls,
    notifications,
    grant_maps,
    grant_copies,
    steps,
    tasks_spawned,
    copies,
    copy_bytes,
    serializes,
    tx_frames,
    rx_frames,
    doorbells,
    tx_drops,
    frames_switched,
    frames_tail_dropped,
    blk_completed,
    netem_offered,
    netem_lost,
    tree_commits,
    tree_nodes_written,
    tree_log_bytes,
);

impl World {
    pub fn snapshot(&self) -> Counters {
        let hv = self.hv.stats();
        let cp = copy_counters();
        let mut c = Counters {
            hypercalls: hv.hypercalls,
            notifications: hv.notifications,
            grant_maps: hv.grant_maps,
            grant_copies: hv.grant_copies,
            steps: hv.steps,
            tasks_spawned: self
                .sources
                .runtimes
                .iter()
                .map(Runtime::spawned_total)
                .sum(),
            copies: cp.copies,
            copy_bytes: cp.copy_bytes,
            serializes: cp.serializes,
            ..Counters::default()
        };
        for net in &self.sources.nets {
            let s = net.stats();
            c.tx_frames += s.tx_frames;
            c.rx_frames += s.rx_frames;
            c.doorbells += s.doorbells;
            c.tx_drops += s.tx_drops;
        }
        if let Some(d) = &self.sources.driver {
            let d = *d.lock();
            c.frames_switched = d.frames_switched;
            c.frames_tail_dropped = d.frames_dropped_congestion + d.frames_dropped_no_rx_buffer;
            c.blk_completed = d.blk_completed;
        }
        if let Some(n) = &self.sources.netem {
            let n = n.lock();
            c.netem_offered = n.offered;
            c.netem_lost = n.total_lost();
        }
        if let Some(read) = self.sources.tree.lock().expect("tree slot").as_ref() {
            let t = read();
            c.tree_commits = t.commits;
            c.tree_nodes_written = t.nodes_written;
            c.tree_log_bytes = t.log_bytes;
        }
        c
    }

    /// Runs the hypervisor in 1 ms slices of virtual time until `cond`
    /// holds. Fails if the world stalls, or passes `limit` first.
    pub fn run_while(
        &mut self,
        limit: Time,
        cond: impl Fn(&Control) -> bool,
    ) -> Result<(), String> {
        const SLICE: Dur = Dur::millis(1);
        loop {
            if !cond(&self.control) {
                return Ok(());
            }
            let outcome = self.hv.run_until(self.hv.now() + SLICE);
            if cond(&self.control) {
                if outcome != RunOutcome::TimeLimit {
                    return Err(format!(
                        "world stalled ({outcome:?}) at {:?}",
                        self.hv.now()
                    ));
                }
                if self.hv.now() >= limit {
                    return Err(format!("virtual deadline {limit:?} passed"));
                }
            }
        }
    }

    pub fn ready(&self) -> impl Fn(&Control) -> bool {
        let target = self.ready_target;
        move |c| c.ready.load(Ordering::SeqCst) < target
    }

    pub fn done(&self) -> impl Fn(&Control) -> bool {
        let target = self.done_target;
        move |c| c.done.load(Ordering::SeqCst) < target
    }

    pub fn reported(&self) -> impl Fn(&Control) -> bool {
        let target = self.report.len();
        move |c| c.reported.load(Ordering::SeqCst) < target
    }
}

// ------------------------------------------------------------ net counters

/// Read access to a NIC's [`NetifStats`](mirage::devices::netfront::NetifStats)
/// after its handle went to the stack.
pub struct NetProbe(NetHandle);

impl NetProbe {
    pub fn stats(&self) -> mirage::devices::netfront::NetifStats {
        self.0.stats()
    }
}

/// [`Backend::net_multiqueue`], plus a probe for the interface counters.
///
/// `NetHandle::stats` borrows the very handle `Stack::spawn` consumes, and
/// the handle has no public constructor. Its queue endpoints are public
/// fields, though: a second, never-attached device donates a handle shell
/// that takes the real queues to the stack, while the real handle — still
/// holding the device's counters — stays behind as the probe.
pub fn observable_net(
    backend: Backend,
    xs: &mirage::devices::Xenstore,
    name: &str,
    mac: [u8; 6],
    queues: usize,
) -> (Box<dyn NetDriver>, Vec<NetHandle>, Vec<NetProbe>) {
    let (driver, real) =
        backend.net_multiqueue(xs.clone(), name, mac, CopyDiscipline::ZeroCopy, queues);
    let (_never_attached, shells) = backend.net_multiqueue(
        xs.clone(),
        format!("{name}-shell"),
        mac,
        CopyDiscipline::ZeroCopy,
        queues,
    );
    let mut for_stack = Vec::with_capacity(queues);
    let mut probes = Vec::with_capacity(queues);
    for (mut real, mut shell) in real.into_iter().zip(shells) {
        std::mem::swap(&mut real.tx, &mut shell.tx);
        std::mem::swap(&mut real.rx, &mut shell.rx);
        for_stack.push(shell);
        probes.push(NetProbe(real));
    }
    // Queues of one device share one counter block: keep a single probe.
    probes.truncate(1);
    (driver, for_stack, probes)
}

// ----------------------------------------------------------- blk decorator

/// A [`BlockIo`] decorator between `BlockLog` and `BlkDevice`: records a
/// `devices.blk.io` span per read/write under the current
/// [`span::scope`]. It stays interposed in the timed repetitions too (one
/// atomic load per call), so traced and untraced runs drive the same code.
pub struct TracedBlk<B> {
    inner: B,
    rt: Runtime,
}

impl<B> TracedBlk<B> {
    pub fn new(inner: B, rt: Runtime) -> TracedBlk<B> {
        TracedBlk { inner, rt }
    }

    fn traced<T: Send + 'static>(&self, fut: BoxFuture<T>) -> BoxFuture<T> {
        if !span::enabled() {
            return fut;
        }
        let rt = self.rt.clone();
        let open = span::open_here(span::BLK_IO, rt.now());
        Box::pin(async move {
            let out = fut.await;
            open.close(rt.now());
            out
        })
    }
}

impl<B: BlockIo> BlockIo for TracedBlk<B> {
    fn sector_count(&self) -> u64 {
        self.inner.sector_count()
    }

    fn read(&self, sector: u64, count: u32) -> BoxFuture<Result<Vec<u8>, BlockError>> {
        self.traced(self.inner.read(sector, count))
    }

    fn write(&self, sector: u64, data: Vec<u8>) -> BoxFuture<Result<(), BlockError>> {
        self.traced(self.inner.write(sector, data))
    }
}

// ------------------------------------------------------------------ inputs

/// A Zipf(s = 1) sampler over ranks `0..n` (rank 0 the most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        // 53 uniform bits: every f64 in [0, 1) the draw can produce.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `len` seeded printable bytes: the value stored under `key` at `version`.
pub fn value_for(seed: u64, key: u64, version: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (version << 48));
    (0..len).map(|_| rng.gen_range(0x20u8..0x7F)).collect()
}

/// A streaming digest that reads eight bytes a step, so checking a bulk
/// flow costs a fraction of a nanosecond per byte on both ends. Chunk
/// boundaries do not matter: `update(a); update(b)` equals `update(a‖b)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    state: u64,
    carry: [u8; 8],
    carried: usize,
    len: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            state: 0xcbf2_9ce4_8422_2325,
            carry: [0; 8],
            carried: 0,
            len: 0,
        }
    }
}

impl Digest {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }

    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.carried > 0 {
            let take = (8 - self.carried).min(data.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&data[..take]);
            self.carried += take;
            data = &data[take..];
            if self.carried < 8 {
                return;
            }
            self.mix(u64::from_le_bytes(self.carry));
            self.carried = 0;
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
    }

    /// `(bytes seen, digest)`.
    pub fn finish(mut self) -> (u64, u64) {
        if self.carried > 0 {
            self.carry[self.carried..].fill(0);
            self.mix(u64::from_le_bytes(self.carry));
        }
        let len = self.len;
        self.mix(len);
        (len, self.state)
    }
}

/// Shares the measured phase is cut into on the host clock.
pub const WINDOWS: u64 = 8;

/// Times each [`WINDOWS`]th of a repetition's work on the host clock.
/// Interference on a shared host comes in bursts shorter than a
/// repetition; a run's `wall_ns_per_op` is a low quantile over every
/// window of every repetition, so it takes a burst in most of them to
/// move it.
pub struct Windows {
    per_window: u64,
    done: u64,
    next_mark: u64,
    last: Instant,
    ns: Vec<u64>,
}

impl Windows {
    /// `total` units of work (ops, or bytes of a flow) lie ahead.
    pub fn new(total: u64) -> Windows {
        let per_window = total.div_ceil(WINDOWS).max(1);
        Windows {
            per_window,
            done: 0,
            next_mark: per_window,
            last: Instant::now(),
            ns: Vec::with_capacity(WINDOWS as usize),
        }
    }

    /// The measured phase starts now.
    pub fn start(&mut self) {
        self.last = Instant::now();
    }

    /// `units` more are done; reads the clock only when a mark is crossed.
    pub fn advance(&mut self, units: u64) {
        self.done += units;
        while self.done >= self.next_mark && self.ns.len() < WINDOWS as usize {
            let now = Instant::now();
            self.ns
                .push(now.duration_since(self.last).as_nanos() as u64);
            self.last = now;
            self.next_mark += self.per_window;
        }
    }

    pub fn finish(self) -> Vec<u64> {
        self.ns
    }
}

/// The measured window of one party, on both clocks.
#[derive(Clone, Copy)]
pub struct Window {
    pub virt_start: Time,
    pub virt_end: Time,
    pub wall_start: Instant,
    pub wall_end: Instant,
}

impl Window {
    /// The hull of two parties' windows.
    pub fn union(self, other: Window) -> Window {
        Window {
            virt_start: self.virt_start.min(other.virt_start),
            virt_end: self.virt_end.max(other.virt_end),
            wall_start: self.wall_start.min(other.wall_start),
            wall_end: self.wall_end.max(other.wall_end),
        }
    }

    pub fn write_into(&self, m: &mut Measured) {
        m.virt_start_ns = self.virt_start.as_nanos();
        m.virt_end_ns = self.virt_end.as_nanos();
        m.wall_ns = self.wall_end.duration_since(self.wall_start).as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_chunk_boundaries() {
        let mut rng = Rng::new(7);
        let mut data = vec![0u8; 10_007];
        rng.fill_bytes(&mut data);
        let mut whole = Digest::default();
        whole.update(&data);
        let mut pieces = Digest::default();
        let mut at = 0;
        while at < data.len() {
            let n = rng.gen_range(1usize..=37).min(data.len() - at);
            pieces.update(&data[at..at + n]);
            at += n;
        }
        assert_eq!(whole.finish(), pieces.finish());
        let mut flipped = data.clone();
        flipped[5_000] ^= 1;
        let mut other = Digest::default();
        other.update(&flipped);
        assert_ne!(whole.finish().1, other.finish().1);
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(1_000);
        let mut rng = Rng::new(1);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1_000);
            if r < 10 {
                head += 1;
            }
        }
        // H(10)/H(1000) ≈ 0.39 of the mass sits on the ten hottest ranks.
        assert!((3_400..4_400).contains(&head), "{head}");
    }
}
