//! Golden log: `golden_log.hex` is the log image the tree wrote for the
//! sequence below at the commit before leaves were searched in place and
//! the CRC went eight bytes wide (`Vec<Vec<u8>>` leaves, one CRC table).
//! Whatever the tree does in memory, the bytes on disk may not move: the
//! same sequence must reproduce the image, and the image — a log written
//! before the change — must mount and scan to the model.
//!
//! To regenerate (only if the *sequence* changes): write `hex(&image)` of
//! `run().0`, 64 bytes a line.

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use mirage_storage::{AppendLog, MemLog, Tree};
use mirage_testkit::rng::Rng;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Polls a future whose I/O is always immediately ready (`MemLog`).
fn ready<T>(f: impl Future<Output = T>) -> T {
    match pin!(f).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("a MemLog future never waits"),
    }
}

/// Short keys and values keep the image small; the empty key and empty
/// values are in the mix.
fn key(id: u32) -> Vec<u8> {
    match id {
        0 => Vec::new(),
        id => (id as u16).to_be_bytes().to_vec(),
    }
}

/// 420 seeded operations: ascending inserts first (leaves split half
/// full, so the root fills and an interior node splits), then sets,
/// replacements and deletes over the same keys.
fn run() -> (Vec<u8>, Model) {
    let tree = Tree::new(MemLog::new());
    let mut model = Model::new();
    let mut rng = Rng::for_stream(24, "golden-log");
    let value = |rng: &mut Rng| {
        let mut v = vec![0u8; rng.gen_index(4)];
        rng.fill_bytes(&mut v);
        v
    };
    for id in 0..160 {
        let v = value(&mut rng);
        ready(tree.set(&key(id), &v)).unwrap();
        model.insert(key(id), v);
    }
    for _ in 160..420 {
        let k = key(rng.gen_range(0u32..220));
        if rng.gen_index(3) == 0 {
            let deleted = ready(tree.delete(&k)).unwrap();
            assert_eq!(deleted, model.remove(&k).is_some());
        } else {
            let v = value(&mut rng);
            ready(tree.set(&k, &v)).unwrap();
            model.insert(k, v);
        }
    }
    let tail = tree.log().tail();
    (ready(tree.log().read_at(0, tail as usize)).unwrap(), model)
}

fn golden() -> Vec<u8> {
    let hex: Vec<u8> = include_str!("golden_log.hex")
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    hex.chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn the_sequence_reproduces_the_golden_image_byte_for_byte() {
    let (image, _) = run();
    let golden = golden();
    assert_eq!(image.len(), golden.len());
    if let Some(at) = image.iter().zip(&golden).position(|(a, b)| a != b) {
        panic!("the log differs from the golden image at byte {at}");
    }
}

#[test]
fn a_log_written_before_the_change_mounts_and_scans_to_the_model() {
    let (_, model) = run();
    let log = MemLog::new();
    ready(log.append(golden())).unwrap();
    let tree = ready(Tree::recover(log)).unwrap();
    // Cold cache: a get reads its whole path, so the reads are the height.
    ready(tree.get(&key(100))).unwrap();
    let height = tree.stats().node_reads;
    assert!(height >= 3, "an interior node split: height {height}");
    assert_eq!(
        ready(tree.scan()).unwrap(),
        model.into_iter().collect::<Vec<_>>()
    );
    assert!(
        ready(tree.delete(&key(100))).unwrap(),
        "and it takes writes"
    );
}
