//! The Mirage library catalogue (paper Table 1).
//!
//! "All network services are available as libraries, so only modules
//! explicitly referenced in configuration files are linked in the output.
//! The module dependency graph can be easily statically verified to only
//! contain the desired services" (§2.3.1). This module is that catalogue:
//! every system facility of Table 1, with its dependency edges and a
//! modelled object size. The appliance builder computes link closures over
//! it.
//!
//! `object_bytes` is the Fig. 5/6 boot model's input (and sizes the CT-ASR
//! sections): one function-level size per library, set near the paper's
//! published appliance sizes (Table 2: the DNS appliance is 184 kB after
//! elimination). Table 2 and Fig. 14a themselves are measured on the
//! appliance binaries this workspace builds, by `scripts/verify.sh`.

use std::fmt;

/// Table 1 subsystem groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subsystem {
    /// Lwt, Cstruct, Regexp, UTF8, Cryptokit + the runtime itself.
    Core,
    /// Ethernet … TCP, OpenFlow.
    Network,
    /// Key-value, FAT-32, append B-tree, Memcache.
    Storage,
    /// DNS, SSH, HTTP, XMPP, SMTP.
    Application,
    /// JSON, XML, CSS, S-expressions.
    Formats,
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Subsystem::Core => "Core",
            Subsystem::Network => "Network",
            Subsystem::Storage => "Storage",
            Subsystem::Application => "Application",
            Subsystem::Formats => "Formats",
        };
        f.write_str(s)
    }
}

/// Metadata for one linkable library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibraryInfo {
    /// Unique name.
    pub name: &'static str,
    /// Table 1 subsystem.
    pub subsystem: Subsystem,
    /// Modelled object size in bytes after function-level elimination:
    /// the Fig. 5/6 boot model's input.
    pub object_bytes: u32,
    /// Hard dependencies (always linked alongside).
    pub deps: &'static [&'static str],
}

/// A handle into the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Library(pub(crate) &'static LibraryInfo);

impl Library {
    /// Library name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// Catalogue metadata.
    pub fn info(&self) -> &'static LibraryInfo {
        self.0
    }

    /// Looks a library up by name.
    pub fn by_name(name: &str) -> Option<Library> {
        CATALOG.iter().find(|l| l.name == name).map(Library)
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.name)
    }
}

macro_rules! lib_consts {
    ($( $const_name:ident = $name:literal ),+ $(,)?) => {
        impl Library {
            $(
                #[doc = concat!("The `", $name, "` library.")]
                pub const $const_name: Library = Library(
                    match find_in_catalog($name) {
                        Some(info) => info,
                        None => panic!("library missing from catalogue"),
                    },
                );
            )+
        }
    };
}

const fn find_in_catalog(name: &str) -> Option<&'static LibraryInfo> {
    let mut i = 0;
    while i < CATALOG.len() {
        if const_str_eq(CATALOG[i].name, name) {
            return Some(&CATALOG[i]);
        }
        i += 1;
    }
    None
}

const fn const_str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// The full Table 1 catalogue plus the base runtime pieces.
pub const CATALOG: &[LibraryInfo] = &[
    // --- base (always linked) ---------------------------------------------
    LibraryInfo { name: "runtime", subsystem: Subsystem::Core, object_bytes: 74_250, deps: &["pvboot"] },
    LibraryInfo { name: "pvboot", subsystem: Subsystem::Core, object_bytes: 22_400, deps: &[] },
    // --- core libraries ----------------------------------------------------
    LibraryInfo { name: "lwt", subsystem: Subsystem::Core, object_bytes: 23_400, deps: &["runtime"] },
    LibraryInfo { name: "cstruct", subsystem: Subsystem::Core, object_bytes: 9_600, deps: &["runtime"] },
    LibraryInfo { name: "regexp", subsystem: Subsystem::Core, object_bytes: 7_800, deps: &["runtime"] },
    LibraryInfo { name: "utf8", subsystem: Subsystem::Core, object_bytes: 4_000, deps: &["runtime"] },
    LibraryInfo { name: "cryptokit", subsystem: Subsystem::Core, object_bytes: 16_000, deps: &["runtime"] },
    // --- network -----------------------------------------------------------
    LibraryInfo { name: "ethernet", subsystem: Subsystem::Network, object_bytes: 6_300, deps: &["cstruct", "lwt"] },
    LibraryInfo { name: "arp", subsystem: Subsystem::Network, object_bytes: 5_600, deps: &["ethernet"] },
    LibraryInfo { name: "dhcp", subsystem: Subsystem::Network, object_bytes: 7_700, deps: &["udp"] },
    LibraryInfo { name: "ipv4", subsystem: Subsystem::Network, object_bytes: 11_050, deps: &["arp"] },
    LibraryInfo { name: "icmp", subsystem: Subsystem::Network, object_bytes: 4_200, deps: &["ipv4"] },
    LibraryInfo { name: "udp", subsystem: Subsystem::Network, object_bytes: 5_600, deps: &["ipv4"] },
    LibraryInfo { name: "tcp", subsystem: Subsystem::Network, object_bytes: 34_100, deps: &["ipv4"] },
    LibraryInfo { name: "openflow", subsystem: Subsystem::Network, object_bytes: 18_450, deps: &["tcp"] },
    // --- storage -----------------------------------------------------------
    LibraryInfo { name: "kv", subsystem: Subsystem::Storage, object_bytes: 6_000, deps: &["lwt"] },
    LibraryInfo { name: "fat32", subsystem: Subsystem::Storage, object_bytes: 12_400, deps: &["cstruct", "lwt"] },
    LibraryInfo { name: "btree", subsystem: Subsystem::Storage, object_bytes: 11_700, deps: &["cstruct", "lwt"] },
    LibraryInfo { name: "memcache", subsystem: Subsystem::Storage, object_bytes: 6_000, deps: &["tcp", "kv"] },
    // --- application -------------------------------------------------------
    LibraryInfo { name: "dns", subsystem: Subsystem::Application, object_bytes: 15_000, deps: &["udp", "kv", "regexp"] },
    LibraryInfo { name: "ssh", subsystem: Subsystem::Application, object_bytes: 20_300, deps: &["tcp", "cryptokit"] },
    LibraryInfo { name: "http", subsystem: Subsystem::Application, object_bytes: 16_650, deps: &["tcp", "regexp", "utf8"] },
    LibraryInfo { name: "xmpp", subsystem: Subsystem::Application, object_bytes: 13_500, deps: &["tcp", "xml"] },
    LibraryInfo { name: "smtp", subsystem: Subsystem::Application, object_bytes: 9_100, deps: &["tcp", "regexp"] },
    // --- formats -----------------------------------------------------------
    LibraryInfo { name: "json", subsystem: Subsystem::Formats, object_bytes: 7_200, deps: &["utf8"] },
    LibraryInfo { name: "xml", subsystem: Subsystem::Formats, object_bytes: 9_800, deps: &["utf8"] },
    LibraryInfo { name: "css", subsystem: Subsystem::Formats, object_bytes: 3_900, deps: &["utf8"] },
    LibraryInfo { name: "sexp", subsystem: Subsystem::Formats, object_bytes: 4_400, deps: &["utf8"] },
];

lib_consts! {
    RUNTIME = "runtime",
    PVBOOT = "pvboot",
    CORE_LWT = "lwt",
    CORE_CSTRUCT = "cstruct",
    CORE_REGEXP = "regexp",
    CORE_UTF8 = "utf8",
    CORE_CRYPTOKIT = "cryptokit",
    NET_ETHERNET = "ethernet",
    NET_ARP = "arp",
    NET_DHCP = "dhcp",
    NET_IPV4 = "ipv4",
    NET_ICMP = "icmp",
    NET_UDP = "udp",
    NET_TCP = "tcp",
    NET_OPENFLOW = "openflow",
    STORE_KV = "kv",
    STORE_FAT32 = "fat32",
    STORE_BTREE = "btree",
    STORE_MEMCACHE = "memcache",
    APP_DNS = "dns",
    APP_SSH = "ssh",
    APP_HTTP = "http",
    APP_XMPP = "xmpp",
    APP_SMTP = "smtp",
    FMT_JSON = "json",
    FMT_XML = "xml",
    FMT_CSS = "css",
    FMT_SEXP = "sexp",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<_> = CATALOG.iter().map(|l| l.name).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn every_dependency_exists() {
        for lib in CATALOG {
            for dep in lib.deps {
                assert!(
                    Library::by_name(dep).is_some(),
                    "{} depends on missing {dep}",
                    lib.name
                );
            }
        }
    }

    #[test]
    fn table1_subsystems_are_all_populated() {
        for subsystem in [
            Subsystem::Core,
            Subsystem::Network,
            Subsystem::Storage,
            Subsystem::Application,
            Subsystem::Formats,
        ] {
            assert!(
                CATALOG.iter().any(|l| l.subsystem == subsystem),
                "no libraries in {subsystem}"
            );
        }
    }

    #[test]
    fn consts_resolve_to_catalogue_entries() {
        assert_eq!(Library::APP_DNS.name(), "dns");
        assert_eq!(Library::NET_TCP.info().subsystem, Subsystem::Network);
        assert_eq!(Library::by_name("tcp"), Some(Library::NET_TCP));
        assert_eq!(Library::by_name("nonexistent"), None);
    }

    #[test]
    fn dependency_graph_is_acyclic() {
        fn visit(name: &str, stack: &mut Vec<&'static str>) {
            let lib = Library::by_name(name).expect("exists");
            assert!(
                !stack.contains(&lib.name()),
                "cycle through {name}: {stack:?}"
            );
            stack.push(lib.name());
            for dep in lib.info().deps {
                visit(dep, stack);
            }
            stack.pop();
        }
        for lib in CATALOG {
            visit(lib.name, &mut Vec::new());
        }
    }
}
