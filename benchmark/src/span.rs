//! The in-memory span recorder and its self-time arithmetic.
//!
//! Spans are recorded by the benchmark's own closures around the calls
//! into each layer (spans *inside* the product are a later change). Each
//! carries both clocks: virtual nanoseconds from the recording domain's
//! runtime and host nanoseconds since the recorder was switched on. The
//! recorder is off for every timed repetition; one relaxed atomic load is
//! all a call site pays then.

use std::cell::Cell;
use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::task::{Context, Poll};
use std::time::Instant;

use mirage::hypervisor::Time;

/// Span names, one per layer boundary the benchmark can see from outside.
pub const OP: &str = "op";
pub const HTTP_HANDLER: &str = "http.handler";
pub const STORAGE_CALL: &str = "storage.call";
pub const BLK_IO: &str = "devices.blk.io";
pub const APP_READ_WAIT: &str = "app.read_wait";

pub const NAMES: [&str; 5] = [OP, HTTP_HANDLER, STORAGE_CALL, BLK_IO, APP_READ_WAIT];

/// One finished span. `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The root operation this span belongs to (shared by a whole request).
    pub op: u64,
    pub id: u64,
    pub parent: u64,
    pub virt_start: u64,
    pub virt_end: u64,
    pub wall_start: u64,
    pub wall_end: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

thread_local! {
    /// `(op, span id)` of the [`scope`] being polled right now.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Whether spans are being recorded.
#[inline]
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Switches recording on with room for `capacity` spans, so the traced
/// repetition's allocation counts are not the recorder's own.
pub fn start(capacity: usize) {
    let mut spans = SPANS.lock().expect("span store lock");
    spans.clear();
    spans.reserve(capacity);
    *EPOCH.lock().expect("epoch lock") = Some(Instant::now());
    ON.store(true, Ordering::Relaxed);
}

/// Switches recording off and hands back everything recorded.
pub fn stop() -> Vec<Span> {
    ON.store(false, Ordering::Relaxed);
    std::mem::take(&mut *SPANS.lock().expect("span store lock"))
}

fn wall_now() -> u64 {
    let epoch = EPOCH.lock().expect("epoch lock");
    epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
}

/// An open span; [`Open::close`] records it. Inert while recording is off.
#[must_use]
pub struct Open {
    name: &'static str,
    op: u64,
    id: u64,
    parent: u64,
    virt_start: u64,
    wall_start: u64,
}

impl Open {
    /// This span's id, for children opened elsewhere (0 when inert).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn close(self, now: Time) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            name: self.name,
            op: self.op,
            id: self.id,
            parent: self.parent,
            virt_start: self.virt_start,
            virt_end: now.as_nanos(),
            wall_start: self.wall_start,
            wall_end: wall_now(),
        };
        SPANS.lock().expect("span store lock").push(span);
    }
}

/// Opens a span under an explicit parent (`0` for a root).
pub fn open(name: &'static str, op: u64, parent: u64, now: Time) -> Open {
    if !enabled() {
        return Open {
            name,
            op,
            id: 0,
            parent,
            virt_start: 0,
            wall_start: 0,
        };
    }
    Open {
        name,
        op,
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        virt_start: now.as_nanos(),
        wall_start: wall_now(),
    }
}

/// Opens a root span: the operation it starts is named after its own id.
pub fn open_root(name: &'static str, now: Time) -> Open {
    let mut root = open(name, 0, 0, now);
    root.op = root.id;
    root
}

/// Opens a span under whatever [`scope`] is being polled right now.
pub fn open_here(name: &'static str, now: Time) -> Open {
    let (op, parent) = CURRENT.with(Cell::get);
    open(name, op, parent, now)
}

/// Runs `fut` with `(op, span)` as the current scope on every poll, so
/// layers below it (the block-I/O decorator) can parent their spans
/// without the product carrying an id through its signatures. With an
/// inert span (`span == 0`, recording off) `fut` runs bare.
pub async fn scope<F: Future>(op: u64, span: u64, fut: F) -> F::Output {
    if span == 0 {
        return fut.await;
    }
    Scope {
        ctx: (op, span),
        fut: Box::pin(fut),
    }
    .await
}

struct Scope<F> {
    ctx: (u64, u64),
    fut: Pin<Box<F>>,
}

impl<F: Future> Future for Scope<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let outer = CURRENT.with(|c| c.replace(self.ctx));
        let out = self.fut.as_mut().poll(cx);
        CURRENT.with(|c| c.set(outer));
        out
    }
}

/// Per-name totals over a set of spans, in integer virtual nanoseconds so
/// the shares add up exactly.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Number of root spans.
    pub roots: u64,
    /// Sum of root durations.
    pub root_virt_ns: u64,
    /// Per span name: `(count, Σ self time)`.
    pub by_name: Vec<(&'static str, u64, u64)>,
    /// `Σ self − Σ root durations`, in absolute value: time counted outside
    /// any root (a child leaking past its parent, or an orphan).
    pub unattributed_virt_ns: u64,
}

impl Summary {
    /// Adds another repetition's totals.
    pub fn add(&mut self, other: &Summary) {
        self.roots += other.roots;
        self.root_virt_ns += other.root_virt_ns;
        self.unattributed_virt_ns += other.unattributed_virt_ns;
        for &(name, count, own) in &other.by_name {
            match self.by_name.iter_mut().find(|e| e.0 == name) {
                Some(e) => {
                    e.1 += count;
                    e.2 += own;
                }
                None => self.by_name.push((name, count, own)),
            }
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.iter().find(|e| e.0 == name).map_or(0, |e| e.1)
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.by_name.iter().find(|e| e.0 == name).map_or(0, |e| e.2)
    }

    /// Mean self time of `name` per root operation, in virtual µs. The
    /// means of all names sum to the mean root duration.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        if self.roots == 0 {
            return 0.0;
        }
        self.self_ns(name) as f64 / self.roots as f64 / 1e3
    }

    pub fn mean_root_us(&self) -> f64 {
        if self.roots == 0 {
            return 0.0;
        }
        self.root_virt_ns as f64 / self.roots as f64 / 1e3
    }

    pub fn unattributed_ratio(&self) -> f64 {
        if self.root_virt_ns == 0 {
            return 0.0;
        }
        self.unattributed_virt_ns as f64 / self.root_virt_ns as f64
    }
}

/// The part of `[start, end)` not covered by any of `children` (which may
/// overlap each other and stick out of the parent; both are clipped).
fn uncovered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    let end = end.max(start);
    children.sort_unstable();
    let mut covered = 0u64;
    let mut at = start;
    for &(s, e) in children.iter() {
        let s = s.clamp(at, end);
        let e = e.clamp(at, end);
        covered += e - s;
        at = at.max(e);
    }
    (end - start) - covered
}

/// Self time = a span's duration minus the part of it its children cover.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for s in spans {
        if s.parent != 0 && ids.contains(&s.parent) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.virt_start, s.virt_end));
        }
    }
    let mut out = Summary::default();
    let mut self_total = 0u64;
    for s in spans {
        let own = match children.get_mut(&s.id) {
            Some(kids) => uncovered(s.virt_start, s.virt_end, kids),
            None => s.virt_end.saturating_sub(s.virt_start),
        };
        self_total += own;
        if s.parent == 0 {
            out.roots += 1;
            out.root_virt_ns += s.virt_end.saturating_sub(s.virt_start);
        }
        match out.by_name.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += own;
            }
            None => out.by_name.push((s.name, 1, own)),
        }
    }
    out.unattributed_virt_ns = self_total.abs_diff(out.root_virt_ns);
    out
}

/// Serialises spans as one JSON document (`names` indexes the rows).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let mut rows = String::with_capacity(spans.len() * 64);
    for (i, s) in spans.iter().enumerate() {
        let n = match names.iter().position(|n| *n == s.name) {
            Some(n) => n,
            None => {
                names.push(s.name);
                names.len() - 1
            }
        };
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "[{n},{},{},{},{},{},{},{}]",
            s.op, s.id, s.parent, s.virt_start, s.virt_end, s.wall_start, s.wall_end
        ));
    }
    let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\
         \"columns\":[\"name\",\"op\",\"id\",\"parent\",\"virt_start_ns\",\"virt_end_ns\",\
         \"wall_start_ns\",\"wall_end_ns\"],\
         \"clock_note\":\"virt_* is the cost-table model's clock; wall_* is host time since tracing was switched on\",\
         \"names\":[{}],\"spans\":[\n{rows}\n]}}\n",
        names.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            id,
            parent,
            virt_start: start,
            virt_end: end,
            wall_start: start,
            wall_end: end,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // op [0,100) ⊃ handler [10,90) ⊃ storage [20,60) ⊃ io [30,40).
        let spans = [
            span(OP, 1, 0, 0, 100),
            span(HTTP_HANDLER, 2, 1, 10, 90),
            span(STORAGE_CALL, 3, 2, 20, 60),
            span(BLK_IO, 4, 3, 30, 40),
        ];
        let s = summarize(&spans);
        assert_eq!(s.self_ns(OP), 20);
        assert_eq!(s.self_ns(HTTP_HANDLER), 40);
        assert_eq!(s.self_ns(STORAGE_CALL), 30);
        assert_eq!(s.self_ns(BLK_IO), 10);
        assert_eq!(s.unattributed_virt_ns, 0);
    }

    #[test]
    fn adjacent_and_overlapping_children_are_covered_once() {
        // Two back-to-back reads, then two that overlap (pipelined I/O).
        let spans = [
            span(STORAGE_CALL, 1, 0, 0, 100),
            span(BLK_IO, 2, 1, 10, 20),
            span(BLK_IO, 3, 1, 20, 30),
            span(BLK_IO, 4, 1, 50, 70),
            span(BLK_IO, 5, 1, 60, 80),
        ];
        let s = summarize(&spans);
        // Covered: [10,30) ∪ [50,80) = 50 of 100.
        assert_eq!(s.self_ns(STORAGE_CALL), 50);
        assert_eq!(s.count(BLK_IO), 4);
        // Overlap makes the leaves' own sum exceed the covered interval:
        // that excess is exactly what "unattributed" reports.
        assert_eq!(s.self_ns(BLK_IO), 60);
        assert_eq!(s.unattributed_virt_ns, 10);
    }

    #[test]
    fn virtual_shares_sum_to_the_root_exactly() {
        // Three ops of uneven shape; integer sums must reconcile to the ns.
        let mut spans = Vec::new();
        let mut id = 0u64;
        let mut next = || {
            id += 1;
            id
        };
        for (base, dur, inner) in [
            (0u64, 1_003u64, 517u64),
            (2_000, 77, 0),
            (5_000, 999_983, 13),
        ] {
            let root = next();
            spans.push(span(OP, root, 0, base, base + dur));
            if inner > 0 {
                let h = next();
                spans.push(span(HTTP_HANDLER, h, root, base + 1, base + 1 + inner));
                let c = next();
                spans.push(span(STORAGE_CALL, c, h, base + 2, base + 2 + inner / 2));
            }
        }
        let s = summarize(&spans);
        assert_eq!(s.roots, 3);
        let shares: u64 = s.by_name.iter().map(|e| e.2).sum();
        assert_eq!(shares, s.root_virt_ns);
        assert_eq!(s.unattributed_virt_ns, 0);
        assert_eq!(s.unattributed_ratio(), 0.0);
        let mean_sum: f64 = [OP, HTTP_HANDLER, STORAGE_CALL]
            .iter()
            .map(|n| s.mean_self_us(n))
            .sum();
        assert!((mean_sum - s.mean_root_us()).abs() < 1e-9);
    }

    #[test]
    fn a_child_leaking_past_its_parent_shows_as_unattributed() {
        let spans = [span(OP, 1, 0, 0, 100), span(HTTP_HANDLER, 2, 1, 90, 130)];
        let s = summarize(&spans);
        assert_eq!(s.self_ns(OP), 90);
        assert_eq!(s.self_ns(HTTP_HANDLER), 40);
        assert_eq!(s.unattributed_virt_ns, 30);
    }

    #[test]
    fn scope_sets_and_restores_the_current_parent() {
        let waker = std::task::Waker::noop();
        let mut cx = Context::from_waker(waker);
        let inner = scope(7, 70, async { CURRENT.with(Cell::get) });
        let outer = scope(1, 10, async move {
            let seen_inner = inner.await;
            (seen_inner, CURRENT.with(Cell::get))
        });
        let mut outer = std::pin::pin!(outer);
        let Poll::Ready((seen_inner, seen_outer)) = outer.as_mut().poll(&mut cx) else {
            panic!("ready futures");
        };
        assert_eq!(seen_inner, (7, 70));
        assert_eq!(seen_outer, (1, 10));
        assert_eq!(CURRENT.with(Cell::get), (0, 0));
    }
}
