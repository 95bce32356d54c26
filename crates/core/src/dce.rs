//! Dead-code elimination (paper §2.2, §4.5, Table 2).
//!
//! Two levels, exactly as the paper evaluates:
//!
//! * [`DceLevel::Standard`] — "the default OCaml dead-code elimination
//!   which drops unused modules": the link closure over explicitly
//!   referenced libraries; everything reachable is kept whole.
//! * [`DceLevel::FunctionLevel`] — "`ocamlclean`, a more extensive custom
//!   tool which performs dataflow analysis to drop unused functions within
//!   a module if not otherwise referenced; this is safe due to the lack of
//!   dynamic linking in Mirage": retained libraries shrink to their
//!   per-library retention fraction.

use std::collections::BTreeSet;

use crate::library::{Library, LibraryInfo};

/// Elimination level (the two columns of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DceLevel {
    /// Module-level: unreferenced libraries are dropped entirely.
    Standard,
    /// Function-level (`ocamlclean`): retained libraries also shrink.
    FunctionLevel,
}

impl DceLevel {
    /// The object bytes `lib` links in at this level.
    pub(crate) fn object_bytes(self, lib: &LibraryInfo) -> u64 {
        let bytes = lib.object_bytes as u64;
        match self {
            DceLevel::Standard => bytes,
            DceLevel::FunctionLevel => bytes * lib.dce_retention_pct as u64 / 100,
        }
    }
}

/// The result of a link + eliminate pass.
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

    /// Total object bytes at an elimination level.
    pub fn object_bytes(&self, level: DceLevel) -> u64 {
        self.retained.iter().map(|l| level.object_bytes(l)).sum()
    }

    /// Total source lines of the retained set (Figure 14 inventory).
    pub fn total_loc(&self) -> u64 {
        self.retained.iter().map(|l| l.loc as u64).sum()
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
    fn function_level_always_smaller_than_standard() {
        for roots in [
            vec![Library::APP_DNS],
            vec![Library::APP_HTTP, Library::STORE_BTREE],
            vec![Library::NET_OPENFLOW],
        ] {
            let set = LinkSet::close(&roots);
            assert!(
                set.object_bytes(DceLevel::FunctionLevel) < set.object_bytes(DceLevel::Standard),
                "ocamlclean shrinks {roots:?}"
            );
        }
    }

    #[test]
    fn table2_ballpark_for_the_dns_appliance() {
        // Paper Table 2: DNS 0.449 MB standard, 0.184 MB after elimination.
        let set = LinkSet::close(&[
            Library::APP_DNS,
            Library::NET_DHCP,
            Library::NET_ICMP,
        ]);
        let standard = set.object_bytes(DceLevel::Standard);
        let cleaned = set.object_bytes(DceLevel::FunctionLevel);
        assert!(
            (250_000..650_000).contains(&standard),
            "standard build in the hundreds of kB: {standard}"
        );
        assert!(
            (100_000..300_000).contains(&cleaned),
            "cleaned build well under standard: {cleaned}"
        );
        assert!(cleaned * 2 < standard + 100_000, "roughly the paper's ratio");
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
