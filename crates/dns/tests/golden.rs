//! Golden encodings: every message below was encoded by the encoder as it
//! stood before names became one buffer and the compression tables began
//! borrowing suffixes (`Vec<Vec<u8>>` names, a cloned name per table key),
//! under both compression tables — which agreed on every byte, so
//! `golden_encodings.hex` holds one line per message. Whatever the encoder
//! does inside, the wire may not move.
//!
//! To regenerate (only if the *generator* changes): print
//! `hex(&m.encode_with(..))` for each of `golden_messages()`, one per line.

use std::net::Ipv4Addr;

use mirage_dns::{CompressionTable, DnsName, Message, NameError, RData, RType, Rcode, Record};
use mirage_testkit::rng::Rng;

const HOSTS: [&str; 8] = [
    "www",
    "mail",
    "ns1",
    "ns2",
    "a",
    "b",
    "host7",
    "xn--caf-dma",
];
const ZONES: [&str; 6] = [
    "example.org",
    "example.com",
    "sub.example.org",
    "deep.er.sub.example.org",
    "org",
    "test",
];

fn name(rng: &mut Rng) -> DnsName {
    let zone = ZONES[rng.gen_index(ZONES.len())];
    match rng.gen_index(8) {
        0 => DnsName::parse(zone).unwrap(),
        1 => DnsName::root(),
        // A label at the 63-byte limit.
        2 => DnsName::parse(zone)
            .unwrap()
            .child(&"l".repeat(63))
            .unwrap(),
        _ => DnsName::parse(zone)
            .unwrap()
            .child(HOSTS[rng.gen_index(HOSTS.len())])
            .unwrap(),
    }
}

fn record(rng: &mut Rng) -> Record {
    let rdata = match rng.gen_index(6) {
        0 | 1 => RData::A(Ipv4Addr::new(10, rng.gen_range(0u8..=255), 0, 1)),
        2 => RData::Cname(name(rng)),
        3 => RData::Ns(name(rng)),
        4 => RData::Mx {
            preference: rng.gen_range(0u16..100),
            exchange: name(rng),
        },
        _ => soa(rng),
    };
    Record {
        name: name(rng),
        ttl: rng.gen_range(0u32..100_000),
        rdata,
    }
}

fn soa(rng: &mut Rng) -> RData {
    RData::Soa {
        mname: name(rng),
        rname: name(rng),
        serial: rng.gen_range(1u32..=u32::MAX),
    }
}

/// 240 messages off one fixed stream: bare queries, answers whose records
/// share suffixes with the question and each other, NXDOMAINs carrying an
/// SOA, and one response long enough that names are written past the
/// reach of a 14-bit pointer.
fn golden_messages() -> Vec<Message> {
    let mut rng = Rng::for_stream(0x601D, "dns.golden");
    let qtypes = [
        RType::A,
        RType::Ns,
        RType::Cname,
        RType::Soa,
        RType::Mx,
        RType::Txt,
        RType::Other(255),
    ];
    let mut messages = Vec::new();
    for i in 0..239u16 {
        let mut query = Message::query(
            rng.gen_range(0u16..=u16::MAX),
            name(&mut rng),
            qtypes[rng.gen_index(qtypes.len())],
        );
        query.rd = rng.gen_bool(0.5);
        messages.push(match i % 3 {
            0 => query,
            1 => {
                let mut r = Message::response_to(&query, Rcode::NoError);
                for section in [&mut r.answers, &mut r.authority, &mut r.additional] {
                    for _ in 0..rng.gen_range(0usize..5) {
                        section.push(record(&mut rng));
                    }
                }
                r
            }
            _ => {
                let mut r = Message::response_to(&query, Rcode::NxDomain);
                r.authority.push(Record {
                    name: name(&mut rng),
                    ttl: 300,
                    rdata: soa(&mut rng),
                });
                r
            }
        });
    }
    let query = Message::query(7, DnsName::parse("big.example.org").unwrap(), RType::Txt);
    let mut big = Message::response_to(&query, Rcode::NoError);
    for i in 0..80u8 {
        big.answers.push(Record {
            name: name(&mut rng),
            ttl: 60,
            rdata: RData::Txt(vec![b'a' + i % 26; 255]),
        });
    }
    for _ in 0..40 {
        big.additional.push(record(&mut rng));
    }
    messages.push(big);
    messages
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn the_encoder_reproduces_every_golden_byte() {
    let messages = golden_messages();
    let golden: Vec<&str> = include_str!("golden_encodings.hex").lines().collect();
    assert_eq!(messages.len(), golden.len());
    assert!(messages.len() >= 200);
    let mut past_pointer_reach = false;
    for (i, (m, want)) in messages.iter().zip(golden).enumerate() {
        let sized = m.encode_with(&mut CompressionTable::size_ordered());
        let hashed = m.encode_with(&mut CompressionTable::hash());
        assert_eq!(hex(&sized), want, "message {i}, size-first map");
        assert_eq!(hex(&hashed), want, "message {i}, hashtable");
        assert_eq!(m.encode(), sized, "message {i}, default table");
        past_pointer_reach |= sized.len() > 0x4000;
        let parsed = Message::parse(&sized).unwrap_or_else(|e| panic!("message {i}: {e}"));
        assert_eq!(&parsed, m, "message {i} round-trips");
    }
    assert!(
        past_pointer_reach,
        "one message outgrows the 14-bit pointer"
    );
}

#[test]
fn hostile_names_are_still_bad_wire() {
    let bad = |wire: &[u8], pos: usize| {
        assert_eq!(
            DnsName::decode(wire, pos).err(),
            Some(NameError::BadWire),
            "{wire:02x?}"
        )
    };
    // A pointer to itself, and two pointers at each other.
    bad(&[0xC0, 0x00], 0);
    bad(&[0xC0, 0x02, 0xC0, 0x00], 2);
    // A forward pointer.
    bad(&[0xC0, 0x02, 1, b'a', 0], 0);
    // A backward pointer chain longer than any real message needs.
    let mut chain = vec![0u8];
    for i in 0..40u8 {
        chain.extend_from_slice(&[0xC0, if i == 0 { 0 } else { 1 + 2 * (i - 1) }]);
    }
    bad(&chain, chain.len() - 2);
    // A truncated label, a reserved length, a name one byte over 255.
    bad(&[5, b'a', b'b'], 0);
    bad(&[0x40, b'a', 0], 0);
    let mut long = Vec::new();
    for _ in 0..4 {
        long.push(63);
        long.extend_from_slice(&[b'x'; 63]);
    }
    long.push(0);
    bad(&long, 0);
    // … and the same labels arrived at through a pointer still count.
    let mut split = long[..64].to_vec();
    let tail_at = split.len();
    split.extend_from_slice(&long[64..]);
    split.push(63);
    split.extend_from_slice(&[b'y'; 63]);
    split.extend_from_slice(&[0xC0, tail_at as u8]);
    bad(&split, tail_at + 193);
    // One label fewer is exactly at the limit and decodes.
    long.truncate(3 * 64);
    long.extend_from_slice(&[61]);
    long.extend_from_slice(&[b'y'; 61]);
    long.push(0);
    let (ok, used) = DnsName::decode(&long, 0).unwrap();
    assert_eq!((used, ok.encode_uncompressed().len()), (255, 255));
}
