//! Allocation budgets for the B-tree's two hot calls, on the benchmark's
//! tree: 3 000 keys of 128-byte values over `MemLog`, four levels. The
//! numbers are what the code does today, not targets: a change that adds
//! an allocation to one of these paths fails here, in tier-1. (Before
//! leaves were searched in place a `get` made 23 and a replacing `set` 61;
//! the issue that asked for this file allowed 6 and 45, and the code does
//! 4 and 16.)

use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use mirage_storage::{MemLog, Tree};
use mirage_testkit::alloc::{count, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Polls a future whose I/O is always immediately ready (`MemLog`).
fn ready<T>(f: impl Future<Output = T>) -> T {
    match pin!(f).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("a MemLog future never waits"),
    }
}

fn key(k: u32) -> Vec<u8> {
    format!("key{k:08}").into_bytes()
}

#[test]
fn a_get_and_a_replacing_set_allocate_per_node_not_per_pair() {
    let tree = Tree::new(MemLog::new());
    for k in 0..3_000 {
        ready(tree.set(&key(k), &[k as u8; 128])).unwrap();
    }
    let value = [7u8; 128];
    for k in [0, 700, 1_499, 2_250, 2_999u32] {
        let (k, key) = (k as u8, key(k));
        // The log read (its future and its bytes), the borrowed pairs, the
        // value returned. The three interior nodes come from the cache —
        // once a first walk has put back any that aged out of it.
        ready(tree.get(&key)).unwrap();
        let (got, allocations) = count(|| ready(tree.get(&key)));
        assert_eq!(got.unwrap(), Some(vec![k; 128]));
        assert_eq!(allocations, 4, "get {k}");

        // The same read and pairs; the path walked; the batch buffer,
        // sized once; per interior level the copied node's two flat
        // vectors and its `Arc` (9), and the list that carries them to
        // the cache; the log append.
        let (set, allocations) = count(|| ready(tree.set(&key, &value)));
        set.unwrap();
        assert_eq!(allocations, 16, "set {k}");
        assert_eq!(ready(tree.get(&key)).unwrap(), Some(value.to_vec()));
    }
}
