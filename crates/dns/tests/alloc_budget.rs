//! Allocation budgets for the DNS library's per-packet paths. The numbers
//! are what the code does today, not targets: a change that adds an
//! allocation to one of these paths fails here, in tier-1.

use mirage_dns::{CompressionStrategy, DnsName, DnsServer, Message, RType, ServerConfig, Zone};
use mirage_testkit::alloc::{count, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_memo_hit_allocates_the_response_and_nothing_else() {
    let server = DnsServer::new(
        Zone::synthesize("bench.example", 100),
        ServerConfig::default(),
    );
    let name = DnsName::parse("host7.bench.example").unwrap();
    let query = Message::query(1, name, RType::A).encode();
    let first = server.answer(&query).expect("answered");
    let (hit, allocations) = count(|| server.answer(&query));
    assert_eq!(hit, Some(first));
    assert_eq!(server.stats().memo_hits, 1);
    assert_eq!(allocations, 1);
}

/// The §4.2 compression-table ablation: an unmemoized answer, encoded
/// with each table, for a name in the zone and for one that is not.
#[test]
fn an_unmemoized_answer_allocates_per_compression_table() {
    for (compression, hit, nxdomain) in [
        (CompressionStrategy::SizeOrdered, 10, 11),
        (CompressionStrategy::Hash, 10, 12),
    ] {
        let server = DnsServer::new(
            Zone::synthesize("bench.example", 1000),
            ServerConfig {
                memoize: false,
                compression,
            },
        );
        for (host, expected) in [("host7", hit), ("nohost7", nxdomain)] {
            let name = DnsName::parse(&format!("{host}.bench.example")).unwrap();
            let query = Message::query(1, name, RType::A).encode();
            let first = server.answer(&query).expect("answered");
            let (again, allocations) = count(|| server.answer(&query));
            assert_eq!(again, Some(first));
            assert_eq!(allocations, expected, "{compression:?} {host}");
        }
    }
}

#[test]
fn a_name_is_one_allocation() {
    let (name, allocations) = count(|| DnsName::parse("Host7.Bench.Example."));
    let name = name.unwrap();
    assert_eq!(allocations, 1);
    assert_eq!(count(|| name.clone()).1, 1);
    assert_eq!(count(|| name.parent()).1, 1);
    assert_eq!(count(|| name.child("www")).1, 1);
    assert_eq!(count(|| name.is_subdomain_of(&name) && name <= name).1, 0);
    assert_eq!(count(DnsName::root).1, 0, "the root owns no buffer");
    let wire = name.encode_uncompressed();
    assert_eq!(count(|| DnsName::decode(&wire, 0)).1, 1);
}

#[test]
fn encoding_a_query_allocates_per_message_not_per_label() {
    let name = DnsName::parse("a.b.c.d.e.host7.bench.example").unwrap();
    // The question vector, the output buffer, the compression table.
    let (_, allocations) = count(|| Message::query(1, name, RType::A).encode());
    assert!(allocations <= 3, "{allocations}");
}

#[test]
fn parsing_a_reply_allocates_the_sections_and_one_buffer_per_name() {
    let server = DnsServer::new(
        Zone::synthesize("bench.example", 100),
        ServerConfig::default(),
    );
    let name = DnsName::parse("host7.bench.example").unwrap();
    let reply = server
        .answer(&Message::query(1, name, RType::A).encode())
        .expect("answered");
    let (parsed, allocations) = count(|| Message::parse(&reply));
    assert_eq!(parsed.unwrap().answers.len(), 1);
    // Question vector + qname, answer vector + owner name.
    assert!(allocations <= 5, "{allocations}");
}
