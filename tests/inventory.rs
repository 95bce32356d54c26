//! Table 1 conformance: every facility the paper lists as a Mirage library
//! exists in this reproduction — either as a full implementation or as a
//! catalogued entry whose omission DESIGN.md documents.

use mirage::core::{Library, Subsystem, CATALOG};

#[test]
fn every_table1_row_is_in_the_catalogue() {
    let expected = [
        // Core
        ("lwt", Subsystem::Core),
        ("cstruct", Subsystem::Core),
        ("regexp", Subsystem::Core),
        ("utf8", Subsystem::Core),
        ("cryptokit", Subsystem::Core),
        // Network
        ("ethernet", Subsystem::Network),
        ("arp", Subsystem::Network),
        ("dhcp", Subsystem::Network),
        ("ipv4", Subsystem::Network),
        ("icmp", Subsystem::Network),
        ("udp", Subsystem::Network),
        ("tcp", Subsystem::Network),
        ("openflow", Subsystem::Network),
        // Storage
        ("kv", Subsystem::Storage),
        ("fat32", Subsystem::Storage),
        ("btree", Subsystem::Storage),
        ("memcache", Subsystem::Storage),
        // Application
        ("dns", Subsystem::Application),
        ("ssh", Subsystem::Application),
        ("http", Subsystem::Application),
        ("xmpp", Subsystem::Application),
        ("smtp", Subsystem::Application),
        // Formats
        ("json", Subsystem::Formats),
        ("xml", Subsystem::Formats),
        ("css", Subsystem::Formats),
        ("sexp", Subsystem::Formats),
    ];
    for (name, subsystem) in expected {
        let lib = Library::by_name(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(lib.info().subsystem, subsystem, "{name} subsystem");
    }
}

/// The facilities with full executable implementations in this repository
/// (everything the evaluation exercises). The remainder (SSH, XMPP, SMTP,
/// cryptokit, regexp/format codecs) exist as catalogued link units only —
/// the paper's experiments never run them, and DESIGN.md records that.
#[test]
fn implemented_facilities_are_really_implemented() {
    // Compile-time references into each implementation crate.
    use mirage::cstruct::PagePool;
    use mirage::dns::DnsServer;
    use mirage::http::HttpServer;
    use mirage::net::tcp::Connection;
    use mirage::net::{arp, dhcp, ethernet, icmp, ipv4, udp};
    use mirage::openflow::OfSwitch;
    use mirage::ring::{BackRing, FrontRing};
    use mirage::storage::{Fat32, KvStore, Memoizer, Tree};

    fn exists<T>() {}
    exists::<PagePool>();
    exists::<FrontRing>();
    exists::<BackRing>();
    exists::<Connection>();
    exists::<DnsServer>();
    exists::<HttpServer>();
    exists::<OfSwitch>();
    exists::<KvStore>();
    exists::<Memoizer<u8, u8>>();
    exists::<Tree<mirage::storage::MemLog>>();
    exists::<Fat32<mirage::storage::MemDisk>>();
    exists::<arp::ArpPacket>();
    exists::<dhcp::Message>();
    exists::<ethernet::EtherType>();
    exists::<icmp::Echo>();
    exists::<ipv4::Ipv4Packet>();
    exists::<udp::UdpDatagram>();
}

#[test]
fn catalogue_sizes_are_self_consistent() {
    // One modelled object size per library, the boot model's input: every
    // library has one, and linking the whole catalogue into one image
    // still gives a sub-megabyte unikernel (Table 2).
    for lib in CATALOG {
        assert!(lib.object_bytes > 0, "{}", lib.name);
    }
    let all: u64 = CATALOG.iter().map(|l| l.object_bytes as u64).sum();
    assert!(all < 1 << 20, "the whole catalogue links to {all} bytes");
}
