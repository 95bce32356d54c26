//! A minimal xenstore: the out-of-band key/value store through which Xen
//! frontends and backends negotiate rings, grant references and event
//! channels before any device traffic can flow.
//!
//! The paper's drivers "interoperate with unmodified Xen hosts" (§3.4),
//! which implies speaking this handshake: the frontend advertises its ring
//! grants and domain id, the backend responds with an event-channel port,
//! and both sides flip through connection states. Watches are modelled with
//! the hypervisor's virq mechanism so a write wakes every registered
//! watcher — no polling.
//!
//! Only device code and the driver domain hold the store, and they run on
//! the host thread that steps their domains: it is shared, not locked.

use std::cell::RefCell;
use std::rc::Rc;

use mirage_hypervisor::{DomainEnv, DomainId};
use mirage_testkit::hash::DetHashMap;

#[derive(Default)]
struct Store {
    /// Each key's value and the version its last write made.
    map: DetHashMap<String, (String, u64)>,
    watchers: Vec<DomainId>,
    version: u64,
}

/// Shared handle to the store. Clones see the same tree.
#[derive(Clone, Default)]
pub struct Xenstore {
    inner: Rc<RefCell<Store>>,
}

impl std::fmt::Debug for Xenstore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.borrow();
        write!(f, "Xenstore({} keys, v{})", st.map.len(), st.version)
    }
}

impl Xenstore {
    /// An empty store.
    pub fn new() -> Xenstore {
        Xenstore::default()
    }

    /// Registers `dom` to receive a virq on every subsequent write.
    pub fn register_watcher(&self, dom: DomainId) {
        let mut st = self.inner.borrow_mut();
        if !st.watchers.contains(&dom) {
            st.watchers.push(dom);
        }
    }

    /// Writes `key = value` from guest context, waking all watchers.
    pub fn write(&self, env: &mut DomainEnv<'_>, key: &str, value: &str) {
        self.write_host(key, value);
        let watchers = self.inner.borrow().watchers.clone();
        env.consume(env.costs().hypercall); // the store ring round-trip
        for w in watchers {
            if w != env.domid() {
                env.virq(w);
            }
        }
    }

    /// Reads a key from guest context.
    pub fn read(&self, env: &mut DomainEnv<'_>, key: &str) -> Option<String> {
        env.consume(env.costs().hypercall);
        self.read_host(key)
    }

    /// Host-side read (experiment harnesses; no cost accounting).
    pub fn read_host(&self, key: &str) -> Option<String> {
        Some(self.inner.borrow().map.get(key)?.0.clone())
    }

    /// The version `key`'s last write made. A watch event names the path
    /// it fired for, so a watcher learns this without a read.
    pub fn written_at(&self, key: &str) -> Option<u64> {
        Some(self.inner.borrow().map.get(key)?.1)
    }

    /// Host-side write (no watch events — use for pre-seeding only).
    pub fn write_host(&self, key: &str, value: &str) {
        let mut st = self.inner.borrow_mut();
        st.version += 1;
        let version = st.version;
        st.map.insert(key.to_owned(), (value.to_owned(), version));
    }

    /// All keys sharing `prefix`, sorted.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let st = self.inner.borrow();
        let mut keys: Vec<String> = st
            .map
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        keys.sort();
        keys
    }

    /// Monotonic write counter (change detection).
    pub fn version(&self) -> u64 {
        self.inner.borrow().version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_hypervisor::{Guest, Hypervisor, Step, Wake};

    #[test]
    fn host_read_write_round_trip() {
        let xs = Xenstore::new();
        xs.write_host("a/b", "1");
        assert_eq!(xs.read_host("a/b").as_deref(), Some("1"));
        assert_eq!(xs.read_host("a/c"), None);
    }

    #[test]
    fn prefix_listing_is_sorted() {
        let xs = Xenstore::new();
        xs.write_host("net/2/x", "");
        xs.write_host("net/1/x", "");
        xs.write_host("blk/1/x", "");
        assert_eq!(
            xs.keys_with_prefix("net/"),
            vec!["net/1/x".to_owned(), "net/2/x".to_owned()]
        );
    }

    #[test]
    fn guest_write_wakes_watcher() {
        // Watcher blocks forever; writer updates the store; the watch virq
        // must wake the watcher, which then exits.
        struct Watcher {
            xs: Xenstore,
            woken: bool,
        }
        impl Guest for Watcher {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                if self.woken || self.xs.read(env, "signal").is_some() {
                    return Step::Exit(1);
                }
                self.woken = false;
                Step::Yield(Wake::never())
            }
        }
        struct Writer {
            xs: Xenstore,
        }
        impl Guest for Writer {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                self.xs.write(env, "signal", "go");
                Step::Exit(0)
            }
        }
        let xs = Xenstore::new();
        let mut hv = Hypervisor::new();
        let watcher = hv.create_domain(
            "watcher",
            16,
            Box::new(Watcher {
                xs: xs.clone(),
                woken: false,
            }),
        );
        xs.register_watcher(watcher);
        let writer = hv.create_domain("writer", 16, Box::new(Writer { xs: xs.clone() }));
        let outcome = hv.run();
        assert_eq!(outcome, mirage_hypervisor::RunOutcome::AllExited);
        assert_eq!(hv.exit_code(watcher), Some(1));
        assert_eq!(hv.exit_code(writer), Some(0));
    }

    #[test]
    fn version_increments_per_write() {
        let xs = Xenstore::new();
        assert_eq!(xs.version(), 0);
        xs.write_host("k", "v");
        xs.write_host("k", "v2");
        assert_eq!(xs.version(), 2);
    }
}
