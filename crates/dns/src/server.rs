//! The authoritative DNS server (paper §4.2).
//!
//! "The Mirage DNS Server appliance contains the core libraries, the
//! Ethernet, ARP, IP, DHCP and UDP libraries from the network stack, and a
//! simple in-memory filesystem storing the zone in standard Bind9 format."
//!
//! The server answers from an in-memory [`Zone`] with CNAME chasing and
//! optional **response memoization** — the 20-line patch that "increased
//! performance from around 40 kqueries/s to 75–80 kqueries/s" in
//! Figure 10. The memo key is the canonical question ([`QuestionKey`]);
//! the memo value the full wire response (minus the transaction id,
//! patched per query).
//!
//! Who may allocate on the answer path: a query that is one plain
//! question — what resolvers without EDNS send — is keyed where it lies
//! in the datagram, on the stack, and a memo hit allocates the returned
//! response and nothing else. Every other shape goes through
//! [`Message::parse`] first and is keyed from what that kept.

use mirage_runtime::Runtime;
use mirage_storage::memo::Memoizer;

use crate::name::{CompressionTable, DnsName, MAX_LABEL_LEN, MAX_NAME_LEN};
use crate::wire::{Message, RData, RType, Rcode, Record};
use crate::zone::Zone;

/// What an answer is a function of, and nothing a client can vary without
/// changing the answer: `rd` (echoed), the query type, and the name as
/// [`DnsName`] holds it — lower-cased, pointers resolved. Not the id
/// (patched per query), not the other header bits, not the class (the
/// parser drops it and every answer says `IN`), not whatever follows the
/// question: any of those in the key lets one question fill the table.
struct QuestionKey {
    /// `rd, qtype:u16be, name labels…`
    bytes: [u8; QuestionKey::NAME_AT + MAX_NAME_LEN - 1],
    len: usize,
}

impl QuestionKey {
    const NAME_AT: usize = 3;

    /// `labels` is a name as [`DnsName::wire`] has it, in any case (label
    /// lengths stop at 63, below `'A'`, so the run is folded as a whole).
    fn new(rd: bool, qtype: u16, labels: &[u8]) -> QuestionKey {
        let mut bytes = [0; QuestionKey::NAME_AT + MAX_NAME_LEN - 1];
        let len = QuestionKey::NAME_AT + labels.len();
        bytes[0] = u8::from(rd);
        bytes[1..3].copy_from_slice(&qtype.to_be_bytes());
        bytes[QuestionKey::NAME_AT..len].copy_from_slice(labels);
        bytes[QuestionKey::NAME_AT..len].make_ascii_lowercase();
        QuestionKey { bytes, len }
    }

    /// The key of a datagram that is exactly a header announcing one
    /// question and no records, that question's name in plain labels, its
    /// type and class, and nothing after. `None` for any other shape,
    /// malformed or merely unusual: the full parser decides which.
    fn of_plain_query(query: &[u8]) -> Option<QuestionKey> {
        let (header, question) = query.split_first_chunk::<12>()?;
        if header[2] & 0x80 != 0 || header[4..] != [0, 1, 0, 0, 0, 0, 0, 0] {
            return None;
        }
        let mut rest = question;
        let mut name_len = 0;
        loop {
            let (&len, tail) = rest.split_first()?;
            let len = usize::from(len);
            if len == 0 {
                rest = tail;
                break;
            }
            name_len += 1 + len;
            if len > MAX_LABEL_LEN || name_len + 1 > MAX_NAME_LEN {
                return None;
            }
            rest = tail.get(len..)?;
        }
        let &[t0, t1, _, _] = rest else {
            return None;
        };
        let (rd, qtype) = (header[2] & 0x01 != 0, u16::from_be_bytes([t0, t1]));
        Some(QuestionKey::new(rd, qtype, &question[..name_len]))
    }

    /// The same key from a parsed query with exactly one question.
    fn of_parsed(msg: &Message) -> QuestionKey {
        let question = &msg.questions[0];
        QuestionKey::new(msg.rd, question.qtype.to_u16(), question.qname.wire())
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// The question the key stands for, as the query [`Message`] the
    /// resolution path answers (id zero: the caller patches it).
    fn to_query(&self) -> Message {
        let qtype = RType::from_u16(u16::from_be_bytes([self.bytes[1], self.bytes[2]]));
        let qname = DnsName::from_wire(&self.as_bytes()[QuestionKey::NAME_AT..]);
        Message {
            rd: self.bytes[0] != 0,
            ..Message::query(0, qname, qtype)
        }
    }
}

/// Which compression table the encoder uses (the §4.2 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionStrategy {
    /// Naive mutable hashtable.
    Hash,
    /// Size-first ordered map (default; DoS-resistant).
    SizeOrdered,
}

/// Entries in the memo table of a memoizing server.
const MEMO_CAPACITY: usize = 64 * 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Memoize responses (the Figure 10 "memo" series).
    pub memoize: bool,
    /// Compression table flavour.
    pub compression: CompressionStrategy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            memoize: true,
            compression: CompressionStrategy::SizeOrdered,
        }
    }
}

/// Per-server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DnsServerStats {
    /// Queries answered.
    pub queries: u64,
    /// Answers served from the memo table.
    pub memo_hits: u64,
    /// Malformed packets dropped.
    pub malformed: u64,
}

/// The authoritative server core: a pure `query bytes -> response bytes`
/// function plus statistics — directly drivable by the UDP loop, the
/// benchmarks, and the tests.
pub struct DnsServer {
    zone: Zone,
    cfg: ServerConfig,
    /// Canonical question ([`QuestionKey`]) → response.
    memo: Option<Memoizer<Vec<u8>, Vec<u8>>>,
    stats: counters::Counter,
}

mod counters {
    //! Tiny interior-mutability counter (avoids a full mutex dependency
    //! in the hot path).
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug, Default)]
    pub struct Counter {
        pub queries: AtomicU64,
        pub memo_hits: AtomicU64,
        pub malformed: AtomicU64,
    }

    impl Counter {
        pub fn bump(&self, which: &AtomicU64) {
            which.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for DnsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DnsServer(zone={}, memo={})",
            self.zone.origin(),
            self.memo.is_some()
        )
    }
}

impl DnsServer {
    /// A server over `zone`.
    pub fn new(zone: Zone, cfg: ServerConfig) -> DnsServer {
        let memo = cfg.memoize.then(|| Memoizer::new(MEMO_CAPACITY));
        DnsServer {
            zone,
            cfg,
            memo,
            stats: Default::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> DnsServerStats {
        use std::sync::atomic::Ordering;
        DnsServerStats {
            queries: self.stats.queries.load(Ordering::Relaxed),
            memo_hits: self.stats.memo_hits.load(Ordering::Relaxed),
            malformed: self.stats.malformed.load(Ordering::Relaxed),
        }
    }

    /// Answers one wire-format query; `None` for unparseable input (drop,
    /// never crash — the type-safety story of §4.2's CVE analysis).
    pub fn answer(&self, query: &[u8]) -> Option<Vec<u8>> {
        let key = QuestionKey::of_plain_query(query).or_else(|| self.parsed_key(query))?;
        Some(self.answer_keyed(query, &key))
    }

    /// The key of a query the in-place walk declined, by way of the full
    /// parser; `None`, counted malformed, if it is no query at all.
    fn parsed_key(&self, query: &[u8]) -> Option<QuestionKey> {
        match Message::parse(query) {
            Ok(msg) if !msg.is_response && msg.questions.len() == 1 => {
                Some(QuestionKey::of_parsed(&msg))
            }
            _ => {
                self.stats.bump(&self.stats.malformed);
                None
            }
        }
    }

    /// Answers the valid query `query`, whose question is `key`.
    fn answer_keyed(&self, query: &[u8], key: &QuestionKey) -> Vec<u8> {
        self.stats.bump(&self.stats.queries);
        let mut wire = match &self.memo {
            Some(memo) => {
                let (wire, hit) = memo
                    .get_or_compute_by(key.as_bytes(), |_| self.compute_answer(&key.to_query()));
                if hit {
                    self.stats.bump(&self.stats.memo_hits);
                }
                wire
            }
            None => self.compute_answer(&key.to_query()),
        };
        wire[0..2].copy_from_slice(&query[0..2]);
        wire
    }

    /// The uncached resolution path.
    fn compute_answer(&self, msg: &Message) -> Vec<u8> {
        let question = &msg.questions[0];
        let mut response;
        if !self.zone.is_authoritative_for(&question.qname) {
            response = Message::response_to(msg, Rcode::Refused);
        } else {
            let mut answers: Vec<Record> = Vec::new();
            let mut qname = question.qname.clone();
            // CNAME chase (bounded).
            for _ in 0..8 {
                let direct = self.zone.lookup(&qname, question.qtype);
                if !direct.is_empty() {
                    answers.extend(direct.into_iter().cloned());
                    break;
                }
                let cnames = self.zone.lookup(&qname, RType::Cname);
                match cnames.first() {
                    Some(r) => {
                        answers.push((*r).clone());
                        if let RData::Cname(target) = &r.rdata {
                            qname = target.clone();
                        } else {
                            break;
                        }
                    }
                    None => break,
                }
            }
            if answers.is_empty() {
                let rcode = if self.zone.lookup_all(&question.qname).is_some() {
                    Rcode::NoError // name exists, no data of this type
                } else {
                    Rcode::NxDomain
                };
                response = Message::response_to(msg, rcode);
                if let Some(soa) = self.zone.soa() {
                    response.authority.push(soa.clone());
                }
            } else {
                response = Message::response_to(msg, Rcode::NoError);
                response.answers = answers;
            }
        }
        let mut table = match self.cfg.compression {
            CompressionStrategy::Hash => CompressionTable::hash(),
            CompressionStrategy::SizeOrdered => CompressionTable::size_ordered(),
        };
        response.encode_with(&mut table)
    }

    /// Runs the UDP service loop: one lightweight thread reading queries
    /// and writing answers — the whole appliance main.
    pub async fn serve_udp(
        self,
        _rt: Runtime,
        mut sock: mirage_net::UdpSocket,
    ) -> i64 {
        loop {
            let Ok((src, sport, query)) = sock.recv_from().await else {
                return 0;
            };
            if let Some(answer) = self.answer(&query) {
                sock.send_to(src, sport, answer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::DnsName;
    use crate::wire::{Message, RType};

    fn server(memoize: bool) -> DnsServer {
        let zone = Zone::parse(
            r#"$ORIGIN example.org.
$TTL 300
@ IN SOA ns1 hostmaster 1
@ IN NS ns1
ns1 IN A 10.0.0.53
www IN A 10.0.0.80
alias IN CNAME www
"#,
        )
        .unwrap();
        DnsServer::new(
            zone,
            ServerConfig {
                memoize,
                ..ServerConfig::default()
            },
        )
    }

    fn ask(server: &DnsServer, id: u16, name: &str, rtype: RType) -> Message {
        let q = Message::query(id, DnsName::parse(name).unwrap(), rtype);
        let wire = server.answer(&q.encode()).expect("answer produced");
        Message::parse(&wire).unwrap()
    }

    #[test]
    fn answers_a_queries() {
        let s = server(false);
        let r = ask(&s, 42, "www.example.org", RType::A);
        assert_eq!(r.id, 42);
        assert!(r.is_response && r.authoritative);
        assert_eq!(r.rcode, Rcode::NoError);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn chases_cnames() {
        let s = server(false);
        let r = ask(&s, 1, "alias.example.org", RType::A);
        assert_eq!(r.answers.len(), 2, "CNAME + target A");
        assert_eq!(r.answers[0].rdata.rtype(), RType::Cname);
        assert_eq!(r.answers[1].rdata.rtype(), RType::A);
    }

    #[test]
    fn nxdomain_with_soa_authority() {
        let s = server(false);
        let r = ask(&s, 2, "missing.example.org", RType::A);
        assert_eq!(r.rcode, Rcode::NxDomain);
        assert_eq!(r.authority.len(), 1, "SOA in authority");
    }

    #[test]
    fn refuses_foreign_zones() {
        let s = server(false);
        let r = ask(&s, 3, "www.example.com", RType::A);
        assert_eq!(r.rcode, Rcode::Refused);
    }

    #[test]
    fn memoized_answers_are_identical_with_fresh_ids() {
        let s = server(true);
        let r1 = ask(&s, 100, "www.example.org", RType::A);
        let r2 = ask(&s, 200, "www.example.org", RType::A);
        assert_eq!(r1.id, 100);
        assert_eq!(r2.id, 200);
        assert_eq!(r1.answers, r2.answers);
        let memo = s.memo.as_ref().unwrap().stats();
        assert_eq!((memo.hits, memo.misses), (1, 1));
    }

    #[test]
    fn garbage_is_dropped_not_crashed() {
        let s = server(true);
        assert!(s.answer(&[0xFF; 3]).is_none());
        assert!(s.answer(&[]).is_none());
        // Random bytes with a plausible length.
        let junk: Vec<u8> = (0..64).map(|i| (i * 37) as u8).collect();
        let _ = s.answer(&junk); // must not panic
        assert!(s.stats().malformed >= 2);
    }

    /// A query for `name`/`A` with the name's letters in random case and,
    /// if `tail`, random bytes after the question.
    fn disguised(rng: &mut mirage_testkit::rng::Rng, id: u16, name: &str, tail: bool) -> Vec<u8> {
        let mut wire = Message::query(id, DnsName::parse(name).unwrap(), RType::A).encode();
        let question_end = wire.len() - 4;
        for b in &mut wire[12..question_end] {
            if b.is_ascii_lowercase() && rng.gen_bool(0.5) {
                b.make_ascii_uppercase();
            }
        }
        if tail {
            for _ in 0..rng.gen_range(1usize..=48) {
                wire.push(rng.gen_range(0u8..=0xFF));
            }
        }
        wire
    }

    #[test]
    fn one_question_is_one_memo_entry_whatever_its_case_or_tail() {
        let s = server(true);
        let mut rng =
            mirage_testkit::rng::Rng::for_stream(mirage_testkit::test_seed(), "dns.flood");
        let reference = s
            .answer(&disguised(&mut rng, 0, "www.example.org", false))
            .unwrap();
        for i in 1..100_000u32 {
            let tail = rng.gen_bool(0.5);
            let query = disguised(&mut rng, i as u16, "www.example.org", tail);
            let wire = s.answer(&query).expect("a valid query");
            assert_eq!(wire[..2], query[..2], "id patched in");
            assert_eq!(wire[2..], reference[2..], "the one cached answer");
        }
        let memo = s.memo.as_ref().unwrap().stats();
        assert_eq!((memo.hits, memo.misses), (99_999, 1));
        assert_eq!(s.memo.as_ref().unwrap().len(), 1);
        assert_eq!(s.stats().memo_hits, 99_999);
    }

    #[test]
    fn the_key_keeps_what_changes_the_answer() {
        let s = server(true);
        let q = Message::query(1, DnsName::parse("www.example.org").unwrap(), RType::A);
        let plain = q.encode();
        let rd = Message {
            rd: true,
            ..q.clone()
        }
        .encode();
        let mx = Message::query(1, DnsName::parse("www.example.org").unwrap(), RType::Mx).encode();
        let mut chaos = plain.clone();
        let class_at = chaos.len() - 1;
        chaos[class_at] = 3; // class CH: ignored by the parser, so by the key
        let answers: Vec<_> = [&plain, &rd, &mx, &chaos]
            .map(|q| s.answer(q).unwrap())
            .into();
        assert_ne!(answers[0], answers[1], "rd is echoed");
        assert_ne!(answers[0], answers[2]);
        assert_eq!(answers[0], answers[3]);
        assert_eq!(s.memo.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn in_place_key_equals_parsed_key() {
        // Every query, valid or mangled, gets the same bytes and moves the
        // same counters whether its key was read in place or came out of
        // the full parser.
        let (fast, slow) = (server(true), server(true));
        let seed = mirage_testkit::test_seed();
        let mut rng = mirage_testkit::rng::Rng::for_stream(seed, "dns.paths");
        let names = [
            "www.example.org",
            "alias.example.org",
            "nope.example.org",
            "example.org",
            "www.example.com",
            ".",
        ];
        let types = [
            RType::A,
            RType::Cname,
            RType::Mx,
            RType::Soa,
            RType::Other(255),
        ];
        let mut valid = Vec::new();
        for i in 0..400u16 {
            let mut q = Message::query(
                i,
                DnsName::parse(names[rng.gen_index(names.len())]).unwrap(),
                types[rng.gen_index(types.len())],
            );
            q.rd = rng.gen_bool(0.5);
            let mut wire = q.encode();
            for b in &mut wire[12..] {
                if b.is_ascii_lowercase() && rng.gen_bool(0.3) {
                    b.make_ascii_uppercase();
                }
            }
            valid.push(wire);
        }
        let mutated = mirage_testkit::corpus::CorpusGen::for_stream(seed, "dns.paths.corpus")
            .corpus(&valid, 4_000);
        let mut in_place = 0;
        for query in valid.iter().chain(&mutated) {
            in_place += u32::from(QuestionKey::of_plain_query(query).is_some());
            let via_parse = slow
                .parsed_key(query)
                .map(|key| slow.answer_keyed(query, &key));
            assert_eq!(fast.answer(query), via_parse, "{query:02x?}");
            assert_eq!(fast.stats(), slow.stats(), "{query:02x?}");
            assert_eq!(
                fast.memo.as_ref().map(|m| m.stats()),
                slow.memo.as_ref().map(|m| m.stats()),
                "{query:02x?}"
            );
        }
        assert!(
            (400..4_400).contains(&in_place),
            "both paths exercised: {in_place}"
        );
        assert!(fast.stats().malformed > 0 && fast.stats().memo_hits > 0);
    }

    #[test]
    fn name_exists_but_no_data_is_noerror() {
        let s = server(false);
        let r = ask(&s, 4, "www.example.org", RType::Mx);
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
    }
}
