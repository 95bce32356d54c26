//! Link closures (paper §2.2, §2.3.1).
//!
//! "Only modules explicitly referenced in configuration files are linked
//! in the output": a [`LinkSet`] is the dependency closure of an
//! appliance's library roots over the catalogue, and its object bytes are
//! the Fig. 5/6 boot model's input. Table 2's two elimination levels are
//! measured on the appliance binaries this workspace builds
//! (`scripts/verify.sh`), not modelled here.

use std::collections::BTreeSet;

use crate::library::{Library, LibraryInfo};

/// The result of a link pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSet {
    retained: Vec<&'static LibraryInfo>,
}

impl LinkSet {
    /// Computes the dependency closure of `roots` (plus the always-linked
    /// base runtime).
    pub fn close(roots: &[Library]) -> LinkSet {
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        let mut stack: Vec<Library> = vec![Library::RUNTIME, Library::PVBOOT];
        stack.extend(roots.iter().copied());
        while let Some(lib) = stack.pop() {
            if !seen.insert(lib.name()) {
                continue;
            }
            for dep in lib.info().deps {
                stack.push(Library::by_name(dep).expect("catalogue closed"));
            }
        }
        let retained = crate::library::CATALOG
            .iter()
            .filter(|l| seen.contains(l.name))
            .collect();
        LinkSet { retained }
    }

    /// Libraries in the closure (catalogue order).
    pub fn libraries(&self) -> impl Iterator<Item = Library> + '_ {
        self.retained.iter().map(|l| Library(l))
    }

    /// Whether `lib` survived the link.
    pub fn contains(&self, lib: Library) -> bool {
        self.retained.iter().any(|l| l.name == lib.name())
    }

    /// Number of retained libraries.
    pub fn len(&self) -> usize {
        self.retained.len()
    }

    /// Whether the set is empty (never true in practice: the runtime is
    /// always linked).
    pub fn is_empty(&self) -> bool {
        self.retained.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{collection};

    /// The soundness audit of §2.3.1: "the module dependency graph can be
    /// easily statically verified to only contain the desired services".
    /// Returns the libraries in `set` that are *not* reachable from the
    /// roots (must be empty).
    fn unreachable_from(set: &LinkSet, roots: &[Library]) -> Vec<Library> {
        let closure = LinkSet::close(roots);
        set.libraries().filter(|l| !closure.contains(*l)).collect()
    }

    #[test]
    fn closure_includes_roots_deps_and_base() {
        let set = LinkSet::close(&[Library::APP_DNS]);
        for lib in [
            Library::APP_DNS,
            Library::NET_UDP,
            Library::NET_IPV4,
            Library::NET_ARP,
            Library::NET_ETHERNET,
            Library::STORE_KV,
            Library::RUNTIME,
            Library::PVBOOT,
        ] {
            assert!(set.contains(lib), "missing {lib}");
        }
    }

    #[test]
    fn unused_services_are_elided() {
        // "if no filesystem is used, then the entire set of block drivers
        // are automatically elided" (§4.5).
        let set = LinkSet::close(&[Library::APP_DNS]);
        assert!(!set.contains(Library::STORE_FAT32));
        assert!(!set.contains(Library::NET_TCP), "DNS/UDP appliance has no TCP");
        assert!(!set.contains(Library::APP_SSH));
    }

    #[test]
    fn audit_finds_no_strays_in_own_closure() {
        let roots = [Library::APP_HTTP];
        let set = LinkSet::close(&roots);
        assert!(unreachable_from(&set, &roots).is_empty());
    }

    mirage_testkit::property! {
        /// Closure soundness: the retained set is closed under deps, and
        /// minimal (every member reachable from the roots + base).
        fn prop_closure_sound_and_minimal(idx in collection::vec(0usize..crate::library::CATALOG.len(), 1..5)) {
            let roots: Vec<Library> = idx
                .iter()
                .map(|i| Library(&crate::library::CATALOG[*i]))
                .collect();
            let set = LinkSet::close(&roots);
            // Closed: every dep of every member is a member.
            for lib in set.libraries() {
                for dep in lib.info().deps {
                    assert!(set.contains(Library::by_name(dep).unwrap()),
                        "{} missing dep {dep}", lib.name());
                }
            }
            // Minimal: auditing against its own roots finds nothing.
            assert!(unreachable_from(&set, &roots).is_empty());
            // Monotone: adding a root never shrinks the closure.
            let mut bigger_roots = roots.clone();
            bigger_roots.push(Library::APP_SSH);
            let bigger = LinkSet::close(&bigger_roots);
            for lib in set.libraries() {
                assert!(bigger.contains(lib));
            }
        }
    }
}
