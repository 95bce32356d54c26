//! `kv_blk`: no network. One domain runs a `Tree<BlockLog<_>>` over the
//! Xen blkfront ring and a PCIe-SSD profile: 80 % get / 20 % set on Zipf
//! keys, one op outstanding, every get checked against a model.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mirage::devices::{Backend, DiskProfile, DriverDomain, NetProfile, Xenstore};
use mirage::hypervisor::{Dur, Hypervisor};
use mirage::runtime::channel;
use mirage::runtime::UnikernelGuest;
use mirage::storage::{BlkDevice, BlockLog, Tree};
use mirage_testkit::rng::Rng;

use crate::hist::Histogram;
use crate::span;
use crate::world::{
    value_for, Control, Gate, Measured, Outcome, Sources, TracedBlk, Window, Windows, World, Zipf,
};

/// Keys preloaded in set-up.
pub const KEYS: usize = 3_000;
/// Measured ops per repetition.
pub const OPS: usize = 10_000;
const VALUE_LEN: usize = 128;
/// Sectors: room for the append-only log of preload + measured sets.
const DISK_SECTORS: u64 = 1 << 22;

fn key_bytes(k: usize) -> Vec<u8> {
    format!("key{k:08}").into_bytes()
}

pub fn build(seed: u64) -> World {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(400_000_000);
    let dom0 =
        DriverDomain::with_profiles(xs.clone(), NetProfile::default(), DiskProfile::pcie_ssd());
    let mut sources = Sources {
        driver: Some(dom0.stats_handle()),
        ..Sources::default()
    };
    hv.create_domain("dom0", 512, Box::new(dom0));

    let control = Arc::new(Control::default());
    let result: Arc<Mutex<Option<Measured>>> = Arc::new(Mutex::new(None));
    let (blkf, bh) = Backend::XenRing.blk(xs.clone(), "vda", DISK_SECTORS);
    let (start_tx, mut start) = channel::channel::<()>();
    let (ctl, res, tree_slot) = (
        Arc::clone(&control),
        Arc::clone(&result),
        Arc::clone(&sources.tree),
    );
    let mut guest = UnikernelGuest::new(move |_env, rt| {
        let rt2 = rt.clone();
        rt.spawn(async move {
            let disk = TracedBlk::new(BlkDevice::new(&rt2, bh), rt2.clone());
            let tree = Tree::new(BlockLog::new(disk, 0));
            // The model: the version last written under each key.
            let mut versions: HashMap<usize, u64> = HashMap::with_capacity(KEYS);
            for k in 0..KEYS {
                tree.set(&key_bytes(k), &value_for(seed, k as u64, 0, VALUE_LEN))
                    .await
                    .expect("preload");
                versions.insert(k, 0);
            }
            let stats_of = tree.clone();
            *tree_slot.lock().expect("tree slot") = Some(Box::new(move || stats_of.stats()));
            let zipf = Zipf::new(KEYS);
            let mut rng = Rng::for_stream(seed, "kv_blk");
            ctl.mark_ready();
            let _ = start.recv().await;

            let mut m = Measured::default();
            let (virt_start, wall_start) = (rt2.now(), Instant::now());
            let mut windows = Windows::new(OPS as u64);
            let mut lat = Histogram::new();
            for _ in 0..OPS {
                let k = zipf.sample(&mut rng);
                let is_set = rng.gen_range(0u32..5) == 0;
                let key = key_bytes(k);
                let issued = rt2.now();
                let op = span::open_root(span::OP, issued);
                let call = span::open(span::STORAGE_CALL, op.id(), op.id(), issued);
                let ok = if is_set {
                    let version = versions[&k] + 1;
                    let value = value_for(seed, k as u64, version, VALUE_LEN);
                    let done = span::scope(op.id(), call.id(), tree.set(&key, &value)).await;
                    versions.insert(k, version);
                    m.storage_sets += 1;
                    done.is_ok()
                } else {
                    let got = span::scope(op.id(), call.id(), tree.get(&key)).await;
                    m.storage_gets += 1;
                    got.ok().flatten() == Some(value_for(seed, k as u64, versions[&k], VALUE_LEN))
                };
                let now = rt2.now();
                call.close(now);
                op.close(now);
                lat.record(now.saturating_since(issued).as_nanos());
                m.attempted += 1;
                m.failed += u64::from(!ok);
                m.payload_bytes += VALUE_LEN as u64;
                windows.advance(1);
            }
            m.window_ns = windows.finish();
            Window {
                virt_start,
                virt_end: rt2.now(),
                wall_start,
                wall_end: Instant::now(),
            }
            .write_into(&mut m);
            m.lat = lat;
            *res.lock().expect("result") = Some(m);
            ctl.mark_done();
            loop {
                rt2.sleep(Dur::secs(3600)).await;
            }
        })
    });
    guest.add_device(blkf);
    sources.runtimes.push(guest.runtime().clone());
    let dom = hv.create_domain("kv", 128, Box::new(guest));

    World {
        hv,
        control,
        ready_target: 1,
        done_target: 1,
        start: vec![Gate::new(start_tx, dom)],
        report: Vec::new(),
        sources,
        finish: Box::new(move || Outcome {
            measured: result.lock().expect("result").take().unwrap_or_default(),
            ..Outcome::default()
        }),
    }
}
