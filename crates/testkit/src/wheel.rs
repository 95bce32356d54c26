//! The deadline queue: one ordered map keyed `(deadline, insertion)`.
//!
//! "Thread scheduling is platform-independent with timers stored in a
//! heap-allocated OCaml priority queue" (paper §3.3), and that is all
//! this is: a `BTreeMap` whose first key is the next timer to fire, so
//! entries leave in `(deadline, insertion order)` — the pop order of a
//! binary-heap timer queue, which is what the property suite checks —
//! and a cancelled entry is simply removed. Every `(deadline, insertion)`
//! queue in the system is one of these: executor sleeps, per-connection
//! TCP deadlines, the link conditioner's held frames, block requests in
//! service.
//!
//! O(log n) in the entries *armed*, which is what stays small: idle state
//! arms nothing, so a domain holding a million connections has had at
//! most 1 025 entries in any one queue (DESIGN.md §10 has the table per
//! workload). The type is still called a wheel only because `benchmark/`
//! times it as `mirage_testkit::wheel::TimerWheel`.
//!
//! Deadlines are raw `u64` nanoseconds so the queue stays free of
//! simulator types; its users wrap it with their own `Time` conversions.

use std::collections::BTreeMap;

/// Handle to a pending timer, returned by [`TimerWheel::insert`]: the
/// entry's key. Sequence numbers are never reused, so the handle of a
/// timer that fired or was cancelled names nothing and is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    deadline: u64,
    seq: u64,
}

impl TimerId {
    /// The deadline (absolute nanoseconds) this timer was armed for.
    pub fn deadline(self) -> u64 {
        self.deadline
    }
}

/// Pending timers over `u64`-nanosecond deadlines, in firing order.
///
/// All operations are deterministic; two queues fed the same sequence of
/// calls fire the same entries in the same order.
#[derive(Debug)]
pub struct TimerWheel<T> {
    queue: BTreeMap<(u64, u64), T>,
    /// Insertion sequence — the deterministic same-deadline tie-break.
    next_seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty queue.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            queue: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Armed entries.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Arms a timer at `deadline` (absolute nanoseconds).
    pub fn insert(&mut self, deadline: u64, data: T) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.insert((deadline, seq), data);
        TimerId { deadline, seq }
    }

    /// Disarms `id`, returning its payload, or `None` if it already fired
    /// or was already cancelled.
    pub fn cancel(&mut self, id: TimerId) -> Option<T> {
        self.queue.remove(&(id.deadline, id.seq))
    }

    /// Mutable access to a pending entry's payload (used by sleep futures
    /// to refresh their waker without a cancel/re-insert round trip).
    pub fn get_mut(&mut self, id: TimerId) -> Option<&mut T> {
        self.queue.get_mut(&(id.deadline, id.seq))
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        self.queue
            .first_key_value()
            .map(|(&(deadline, _), _)| deadline)
    }

    /// Fires every entry with `deadline <= now`, in `(deadline, seq)` order
    /// — exactly the pop order of a binary-heap timer queue.
    pub fn advance(&mut self, now: u64, mut fire: impl FnMut(u64, T)) {
        while let Some(first) = self.queue.first_entry() {
            let deadline = first.key().0;
            if deadline > now {
                break;
            }
            fire(deadline, first.remove());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Reference model: a binary-heap timer queue. Pops in
    /// `(deadline, seq)` order; cancellation is a tombstone set.
    struct HeapModel {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        cancelled: std::collections::HashSet<u64>,
    }

    impl HeapModel {
        fn new() -> HeapModel {
            HeapModel {
                heap: BinaryHeap::new(),
                cancelled: std::collections::HashSet::new(),
            }
        }

        fn insert(&mut self, deadline: u64, seq: u64) {
            self.heap.push(Reverse((deadline, seq)));
        }

        fn cancel(&mut self, seq: u64) {
            self.cancelled.insert(seq);
        }

        fn advance(&mut self, now: u64) -> Vec<(u64, u64)> {
            let mut fired = Vec::new();
            while self.heap.peek().map(|Reverse((d, _))| *d <= now).unwrap_or(false) {
                let Reverse((d, s)) = self.heap.pop().expect("peeked");
                if !self.cancelled.remove(&s) {
                    fired.push((d, s));
                }
            }
            fired
        }
    }

    #[test]
    fn fires_in_deadline_then_insertion_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.insert(500, 0);
        w.insert(100, 1);
        w.insert(500, 2);
        w.insert(300, 3);
        let mut fired = Vec::new();
        w.advance(1_000, |_, v| fired.push(v));
        assert_eq!(fired, vec![1, 3, 0, 2]);
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_removes_and_stale_handles_are_ignored() {
        let mut w: TimerWheel<&'static str> = TimerWheel::new();
        let a = w.insert(1_000, "a");
        let b = w.insert(2_000, "b");
        assert_eq!(w.cancel(a), Some("a"));
        assert_eq!(w.cancel(a), None, "double cancel");
        let mut fired = Vec::new();
        w.advance(5_000, |_, v| fired.push(v));
        assert_eq!(fired, vec!["b"]);
        assert_eq!(w.cancel(b), None, "already fired");
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn next_deadline_is_exact_across_levels() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert_eq!(w.next_deadline(), None);
        w.insert(3_000_000_000, 0); // level 4 at 64 ns ticks
        w.insert(70_000, 1); // level 1-2
        assert_eq!(w.next_deadline(), Some(70_000));
        w.insert(130, 2);
        assert_eq!(w.next_deadline(), Some(130));
        w.advance(200, |_, _| {});
        assert_eq!(w.next_deadline(), Some(70_000));
        w.advance(100_000, |_, _| {});
        assert_eq!(w.next_deadline(), Some(3_000_000_000));
    }

    #[test]
    fn far_deadlines_cascade_down_without_firing_early() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let deadline = 60 * 1_000_000_000; // one virtual minute: level 5
        w.insert(deadline, 7);
        let mut fired = Vec::new();
        // Step towards it in uneven jumps; nothing may fire before.
        let mut now = 0u64;
        while now < deadline - 1 {
            now = (now + now / 2 + 977_131).min(deadline - 1);
            w.advance(now, |_, v| fired.push(v));
            assert!(fired.is_empty(), "fired {}ns early", deadline - now);
        }
        w.advance(deadline, |_, v| fired.push(v));
        assert_eq!(fired, vec![7]);
    }

    #[test]
    fn beyond_horizon_entries_survive_in_overflow() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let far = (1 << 48) + 5; // 3.3 virtual days out, beside a near one
        w.insert(far, 1);
        w.insert(10, 2);
        assert_eq!(w.next_deadline(), Some(10));
        let mut fired = Vec::new();
        w.advance(20, |_, v| fired.push(v));
        assert_eq!(fired, vec![2]);
        assert_eq!(w.next_deadline(), Some(far));
        w.advance(far, |_, v| fired.push(v));
        assert_eq!(fired, vec![2, 1]);
        assert!(w.is_empty());
    }

    /// The satellite property: a seeded insert/cancel/advance sequence
    /// fires identically (same entries, same order) on the wheel and on a
    /// binary-heap reference model.
    #[test]
    fn property_matches_binary_heap_reference() {
        let seed = crate::test_seed();
        for case in 0..32u64 {
            let mut rng = Rng::new(seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut model = HeapModel::new();
            let mut ids: Vec<(u64, TimerId)> = Vec::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..400 {
                match rng.gen_range(0..10u32) {
                    // Insert (weighted): deadlines from sub-tick to minutes.
                    0..=5 => {
                        let magnitude = rng.gen_range(0..11u32);
                        let span = 1u64 << (rng.gen_range(0..4u32) + 4 * magnitude).min(36);
                        let deadline = now + rng.gen_range(0..span.max(1));
                        let id = wheel.insert(deadline, seq);
                        model.insert(deadline, seq);
                        ids.push((seq, id));
                        seq += 1;
                    }
                    // Cancel a random outstanding entry.
                    6..=7 if !ids.is_empty() => {
                        let k = rng.gen_range(0..ids.len() as u64) as usize;
                        let (s, id) = ids.swap_remove(k);
                        if wheel.cancel(id).is_some() {
                            model.cancel(s);
                        }
                    }
                    // Advance by a random jump and compare expiry order.
                    _ => {
                        let magnitude = rng.gen_range(0..10u32);
                        now += rng.gen_range(0..(1u64 << (4 * magnitude / 3 + 4)));
                        let mut fired = Vec::new();
                        wheel.advance(now, |d, s| fired.push((d, s)));
                        let expect = model.advance(now);
                        assert_eq!(
                            fired, expect,
                            "divergent expiry (seed {seed}, case {case}, now {now})"
                        );
                        ids.retain(|(s, _)| !fired.iter().any(|(_, fs)| fs == s));
                    }
                }
                assert_eq!(
                    wheel.next_deadline(),
                    model.heap.iter().filter(|Reverse((_, s))| !model.cancelled.contains(s)).map(|Reverse((d, _))| *d).min(),
                    "divergent next_deadline (seed {seed}, case {case})"
                );
            }
            // Drain everything left.
            let mut fired = Vec::new();
            wheel.advance(u64::MAX, |d, s| fired.push((d, s)));
            assert_eq!(fired, model.advance(u64::MAX), "final drain (seed {seed}, case {case})");
            assert!(wheel.is_empty());
        }
    }

    #[test]
    fn overflow_entry_due_in_one_giant_jump() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.insert((1 << 48) + 10, 1);
        let mut fired = Vec::new();
        // One advance that jumps as far again past the deadline.
        w.advance((2 << 48) + 20, |_, v| fired.push(v));
        assert_eq!(fired, vec![1], "a due entry must fire in this advance");
    }

    /// A handle dies with its entry, even when a later timer is armed for
    /// the same instant.
    #[test]
    fn a_cancelled_handle_never_cancels_a_later_timer() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let old = w.insert(100, 1);
        assert_eq!(w.cancel(old), Some(1));
        let new = w.insert(100, 2);
        assert_ne!(old, new);
        assert_eq!(w.cancel(old), None);
        assert_eq!(w.get_mut(old), None);
        assert_eq!(w.len(), 1);
        let mut fired = Vec::new();
        w.advance(100, |d, v| fired.push((d, v)));
        assert_eq!(fired, vec![(100, 2)]);
        assert_eq!(w.cancel(new), None, "already fired");
    }

    #[test]
    fn get_mut_refreshes_in_place() {
        let mut w: TimerWheel<&'static str> = TimerWheel::new();
        w.insert(100, "first");
        let id = w.insert(100, "stale");
        w.insert(100, "last");
        *w.get_mut(id).expect("armed") = "fresh";
        assert_eq!(id.deadline(), 100);
        assert_eq!(w.len(), 3, "refreshed, not re-inserted");
        let mut fired = Vec::new();
        w.advance(100, |_, v| fired.push(v));
        assert_eq!(
            fired,
            vec!["first", "fresh", "last"],
            "once, in its original position"
        );
        assert_eq!(w.get_mut(id), None, "fired");
    }
}
