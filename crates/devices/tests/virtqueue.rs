//! The split virtqueue on its own: round trips, flow control, EVENT_IDX
//! suppression in both directions, index wrap, and the free-list
//! invariants under seeded schedules (`virtqueue_props`).

use mirage_devices::virtio::virtqueue::*;
use mirage_testkit::prop::collection;

const Q: usize = QUEUE_SIZE as usize;

fn one(addr: u64) -> [ChainBuf; 1] {
    [ChainBuf {
        addr,
        len: 64,
        device_writes: false,
    }]
}

#[test]
fn chain_round_trips_head_and_len() {
    let (mut drv, mut dev) = pair();
    let (_, notify) = drv.add_chain(&one(buf_addr(7, 0))).unwrap();
    assert!(notify, "first publish rings a fresh device");
    let chain = dev.pop_avail().expect("chain visible");
    assert_eq!(chain.bufs, vec![(buf_addr(7, 0), 64, false)]);
    let irq = dev.push_used(chain.head, 64);
    assert!(irq, "driver armed at zero");
    assert_eq!(drv.take_used(), Some((chain.head, 64)));
    assert_eq!(drv.take_used(), None);
    assert_eq!(drv.free_descriptors(), QUEUE_SIZE);
}

#[test]
fn multi_descriptor_chain_preserves_order_and_write_flags() {
    let (mut drv, mut dev) = pair();
    let bufs = [
        ChainBuf {
            addr: buf_addr(1, 0),
            len: 23,
            device_writes: false,
        },
        ChainBuf {
            addr: buf_addr(2, 0),
            len: 4096,
            device_writes: true,
        },
        ChainBuf {
            addr: buf_addr(1, 2048),
            len: 1,
            device_writes: true,
        },
    ];
    drv.add_chain(&bufs).unwrap();
    let chain = dev.pop_avail().expect("chain visible");
    assert_eq!(
        chain.bufs,
        vec![
            (buf_addr(1, 0), 23, false),
            (buf_addr(2, 0), 4096, true),
            (buf_addr(1, 2048), 1, true),
        ]
    );
    assert_eq!(drv.free_descriptors(), QUEUE_SIZE - 3);
    dev.push_used(chain.head, 4097);
    assert_eq!(drv.take_used(), Some((chain.head, 4097)));
    assert_eq!(drv.free_descriptors(), QUEUE_SIZE, "whole chain reclaimed");
}

#[test]
fn queue_fills_at_queue_size_and_recovers() {
    let (mut drv, mut dev) = pair();
    for i in 0..QUEUE_SIZE {
        drv.add_chain(&one(buf_addr(i as u32, 0))).unwrap();
    }
    assert_eq!(drv.add_chain(&one(0)), Err(VirtqError::Full));
    let chain = dev.pop_avail().expect("chain");
    dev.push_used(chain.head, 0);
    assert!(drv.take_used().is_some());
    assert!(drv.add_chain(&one(0)).is_ok(), "slot recycled");
}

#[test]
fn doorbells_suppressed_while_device_is_awake() {
    let (mut drv, mut dev) = pair();
    // Device processes the first chain but does NOT re-arm: it is
    // still awake, so subsequent publishes must not ring.
    assert!(drv.add_chain(&one(buf_addr(1, 0))).unwrap().1);
    let c = dev.pop_avail().unwrap();
    dev.push_used(c.head, 0);
    drv.take_used();
    for i in 0..20u32 {
        let (_, notify) = drv.add_chain(&one(buf_addr(i + 2, 0))).unwrap();
        assert!(!notify, "publish {i} suppressed while device is awake");
    }
    // Arming while entries are pending reports the race.
    assert!(dev.enable_avail_notifications(), "pending entries detected");
    // Drain, re-arm cleanly: the next publish rings again.
    while let Some(c) = dev.pop_avail() {
        dev.push_used(c.head, 0);
    }
    while drv.take_used().is_some() {}
    assert!(!dev.enable_avail_notifications(), "queue quiet");
    assert!(
        drv.add_chain(&one(99)).unwrap().1,
        "armed device gets its doorbell"
    );
}

#[test]
fn interrupts_suppressed_while_driver_is_awake() {
    let (mut drv, mut dev) = pair();
    for i in 0..8u32 {
        drv.add_chain(&one(buf_addr(i, 0))).unwrap();
    }
    // Driver consumed nothing yet and armed at 0: first used entry
    // interrupts, later ones are suppressed until it re-arms.
    let c = dev.pop_avail().unwrap();
    assert!(dev.push_used(c.head, 1), "first completion interrupts");
    for _ in 0..7 {
        let c = dev.pop_avail().unwrap();
        assert!(!c.bufs.is_empty());
        assert!(!dev.push_used(c.head, 1), "batched completions suppressed");
    }
    while drv.take_used().is_some() {}
    assert!(!drv.enable_used_notifications(), "all consumed");
}

#[test]
fn indices_wrap_across_many_generations() {
    let (mut drv, mut dev) = pair();
    for round in 0..(QUEUE_SIZE as u32 * 5 + 3) {
        drv.add_chain(&one(buf_addr(round, 0))).unwrap();
        let c = dev.pop_avail().expect("chain");
        assert_eq!(c.bufs[0].0, buf_addr(round, 0));
        dev.push_used(c.head, round);
        assert_eq!(drv.take_used(), Some((c.head, round)));
    }
    assert_eq!(drv.errors().total(), 0);
    assert_eq!(dev.errors().total(), 0);
}

#[test]
fn need_event_matches_the_spec_truth_table() {
    // event inside (old, new]: ring.
    assert!(need_event(1, 2, 0));
    assert!(need_event(5, 6, 5));
    // event already passed (stale): suppressed.
    assert!(!need_event(2, 10, 5));
    // event ahead of new: suppressed.
    assert!(!need_event(7, 6, 5));
    // wrapping: old near u16::MAX, new wrapped past zero.
    assert!(need_event(u16::MAX, 1, u16::MAX - 1));
    assert!(!need_event(3, 1, u16::MAX - 1));
}

// ---------------------------------------------------- virtqueue_props

/// Checks every free-list/chain invariant after each step: no leaked
/// descriptors, no double-free, no cross-linked chains.
fn assert_invariants(drv: &SplitQueue, live: &std::collections::BTreeSet<u16>) {
    let free = drv.debug_free_list();
    assert_eq!(
        free.len(),
        drv.free_descriptors() as usize,
        "free list length matches the counter"
    );
    let mut seen = std::collections::BTreeSet::new();
    for id in &free {
        assert!(
            seen.insert(*id),
            "descriptor {id} appears twice in the free list"
        );
    }
    let mut in_chains = std::collections::BTreeSet::new();
    for head in live {
        for id in drv.debug_chain(*head) {
            assert!(
                in_chains.insert(id),
                "descriptor {id} cross-linked into two live chains"
            );
            assert!(
                !seen.contains(&id),
                "descriptor {id} is simultaneously free and in a live chain"
            );
        }
    }
    assert_eq!(
        seen.len() + in_chains.len(),
        Q,
        "every descriptor is exactly once free or in exactly one chain"
    );
}

mirage_testkit::property! {
    /// virtqueue_props: seeded alloc/free/chain cycles on the
    /// descriptor free list never leak, double-free, or cross-link
    /// descriptors, under any interleaving of publishes, device
    /// echoes and reclaims.
    fn virtqueue_props(script in collection::vec(0u8..8, 1..120)) {
        let (mut drv, mut dev) = pair();
        let mut live: std::collections::BTreeSet<u16> = Default::default();
        let mut addr: u32 = 1;
        for op in script {
            match op {
                // Publish a chain of 1..=4 buffers.
                0..=3 => {
                    let n = (op as usize % 4) + 1;
                    let bufs: Vec<ChainBuf> = (0..n)
                        .map(|i| {
                            addr += 1;
                            ChainBuf {
                                addr: buf_addr(addr, 0),
                                len: 64 * (i as u32 + 1),
                                device_writes: i % 2 == 1,
                            }
                        })
                        .collect();
                    // A Full queue is a legal outcome, not a failure.
                    let _ = drv.add_chain(&bufs);
                }
                // Device consumes one chain and completes it.
                4..=5 => {
                    if let Some(c) = dev.pop_avail() {
                        live.insert(c.head);
                        dev.push_used(c.head, 1);
                    }
                }
                // Driver reclaims one completion.
                _ => {
                    if let Some((head, _)) = drv.take_used() {
                        live.remove(&head);
                    }
                }
            }
            // In-flight-but-not-yet-popped chains are invisible to
            // `live`; only run the full partition check when the
            // device has caught up with the driver.
            if dev.pending_avail() == 0 {
                assert_invariants(&drv, &live);
            }
            assert_eq!(drv.errors().total(), 0, "well-formed traffic never errors");
            assert_eq!(dev.errors().total(), 0, "well-formed traffic never errors");
        }
    }
}
