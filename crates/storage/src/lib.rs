//! Storage libraries for mirage-rs (paper §3.5.2, Table 1).
//!
//! "Mirage block devices share the same Ring abstraction as network
//! devices … with filesystems and caching provided as OCaml libraries.
//! This gives control to the application over caching policy rather than
//! providing only one default cache policy."
//!
//! * [`block`] — the policy-free asynchronous block layer:
//!   [`block::BlkDevice`] over a blkfront ring, [`block::MemDisk`] for
//!   tests. All writes are direct and no data is cached: an appliance
//!   that wants a data cache links its own (Figure 9's kernel page cache
//!   lives with its harness, `mirage_bench::blocksim`).
//! * [`fat`] — the FAT-32 filesystem with sector-at-a-time read iterators.
//! * [`btree`] — the append-only copy-on-write B-tree (Baardskeerder port)
//!   with checksummed commits and torn-write recovery: one log read per
//!   node, one append per commit, interior nodes cached.
//! * [`kv`] — the simple key-value store.
//! * [`memcache`] — the memcache text protocol over the KV store.
//! * [`memo`] — the response-memoization library behind the paper's DNS
//!   speedup (§4.2).

pub mod block;
pub mod btree;
pub mod fat;
pub mod kv;
pub mod memcache;
pub mod memo;

pub use block::{BlkDevice, BlockError, BlockIo, MemDisk};
pub use btree::{AppendLog, BlockLog, MemLog, Tree, TreeError};
pub use fat::{Fat32, FatError};
pub use kv::KvStore;
pub use memcache::MemcacheSession;
pub use memo::Memoizer;

#[cfg(test)]
mod tests {
    //! Cross-module test: FAT-32 over a real blkfront ring serviced by the
    //! driver domain.

    use super::*;
    use mirage_devices::{Backend, DriverDomain, Xenstore};
    use mirage_hypervisor::{Dur, Hypervisor, Time};
    use mirage_runtime::UnikernelGuest;

    #[test]
    fn fat32_over_blkfront_end_to_end() {
        let xs = Xenstore::new();
        let mut hv = Hypervisor::new();
        hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

        let (front, handle) = Backend::XenRing.blk(xs.clone(), "vda", 1 << 16);
        let mut guest = UnikernelGuest::new(move |_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let dev = BlkDevice::new(&rt2, handle);
                let fs = Fat32::format(dev).await.expect("format");
                fs.mkdir("www").await.unwrap();
                let page = vec![b'x'; 10_000];
                fs.write_file("www/index.htm", &page).await.unwrap();
                let back = fs.read_file("www/index.htm").await.unwrap();
                assert_eq!(back, page);
                0
            })
        });
        guest.add_device(front);
        let dom = hv.create_domain("guest", 64, Box::new(guest));
        hv.run_until(Time::ZERO + Dur::secs(60));
        assert_eq!(hv.exit_code(dom), Some(0));
    }

    #[test]
    fn btree_over_blkfront_survives_remount() {
        let xs = Xenstore::new();
        let mut hv = Hypervisor::new();
        hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

        let (front, handle) = Backend::XenRing.blk(xs.clone(), "vdb", 1 << 16);
        let mut guest = UnikernelGuest::new(move |_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let dev = BlkDevice::new(&rt2, handle);
                let log = BlockLog::new(dev, 0);
                let tree = Tree::new(log.clone());
                for i in 0..50u32 {
                    tree.set(format!("user{i}").as_bytes(), format!("tweet {i}").as_bytes())
                        .await
                        .unwrap();
                }
                // "Remount": recover a fresh tree from the same device log
                // (clones share the device and recovered length).
                let recovered = Tree::recover(log.clone()).await.unwrap();
                assert_eq!(
                    recovered.get(b"user42").await.unwrap(),
                    Some(b"tweet 42".to_vec())
                );
                0
            })
        });
        guest.add_device(front);
        let dom = hv.create_domain("guest", 64, Box::new(guest));
        hv.run_until(Time::ZERO + Dur::secs(60));
        assert_eq!(hv.exit_code(dom), Some(0));
    }
}
