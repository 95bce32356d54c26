//! DNS message wire format (RFC 1035 subset sufficient for an
//! authoritative server: A, NS, CNAME, SOA, MX, TXT).

use std::net::Ipv4Addr;

use crate::name::{CompressionTable, DnsName, NameError};

/// Record types understood by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RType {
    /// IPv4 address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name.
    Cname,
    /// Start of authority.
    Soa,
    /// Mail exchanger.
    Mx,
    /// Text.
    Txt,
    /// Anything else (preserved numerically).
    Other(u16),
}

impl RType {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RType::A => 1,
            RType::Ns => 2,
            RType::Cname => 5,
            RType::Soa => 6,
            RType::Mx => 15,
            RType::Txt => 16,
            RType::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u16(v: u16) -> RType {
        match v {
            1 => RType::A,
            2 => RType::Ns,
            5 => RType::Cname,
            6 => RType::Soa,
            15 => RType::Mx,
            16 => RType::Txt,
            other => RType::Other(other),
        }
    }
}

/// Record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// A record.
    A(Ipv4Addr),
    /// NS record.
    Ns(DnsName),
    /// CNAME record.
    Cname(DnsName),
    /// SOA record (mname, rname, serial, refresh, retry, expire, minimum).
    Soa {
        /// Primary name server.
        mname: DnsName,
        /// Responsible mailbox.
        rname: DnsName,
        /// Zone serial.
        serial: u32,
    },
    /// MX record.
    Mx {
        /// Preference.
        preference: u16,
        /// Exchange host.
        exchange: DnsName,
    },
    /// TXT record.
    Txt(Vec<u8>),
    /// Raw bytes of an unhandled type.
    Raw(Vec<u8>),
}

impl RData {
    /// The record type of this data.
    pub fn rtype(&self) -> RType {
        match self {
            RData::A(_) => RType::A,
            RData::Ns(_) => RType::Ns,
            RData::Cname(_) => RType::Cname,
            RData::Soa { .. } => RType::Soa,
            RData::Mx { .. } => RType::Mx,
            RData::Txt(_) => RType::Txt,
            RData::Raw(_) => RType::Other(0),
        }
    }
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: DnsName,
    /// Time to live.
    pub ttl: u32,
    /// Data.
    pub rdata: RData,
}

/// A question.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub qname: DnsName,
    /// Queried type.
    pub qtype: RType,
}

/// Response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Malformed query.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused.
    Refused,
}

impl Rcode {
    fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
        }
    }

    fn from_u8(v: u8) -> Rcode {
        match v & 0x0F {
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            _ => Rcode::NoError,
        }
    }
}

/// A full DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// Query (false) or response (true).
    pub is_response: bool,
    /// Authoritative answer flag.
    pub authoritative: bool,
    /// Recursion desired (echoed).
    pub rd: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authority: Vec<Record>,
    /// Additional section.
    pub additional: Vec<Record>,
}

impl Message {
    /// A query for one question.
    pub fn query(id: u16, qname: DnsName, qtype: RType) -> Message {
        Message {
            id,
            is_response: false,
            authoritative: false,
            rd: false,
            rcode: Rcode::NoError,
            questions: vec![Question { qname, qtype }],
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// An empty response skeleton echoing a query.
    pub fn response_to(query: &Message, rcode: Rcode) -> Message {
        Message {
            id: query.id,
            is_response: true,
            authoritative: true,
            rd: query.rd,
            rcode,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Serialises with name compression.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(&mut CompressionTable::default())
    }

    /// Serialises using a caller-supplied compression table flavour (for
    /// the §4.2 ablation bench).
    pub fn encode_with<'a>(&'a self, table: &mut CompressionTable<'a>) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut flags = 0u16;
        if self.is_response {
            flags |= 0x8000;
        }
        if self.authoritative {
            flags |= 0x0400;
        }
        if self.rd {
            flags |= 0x0100;
        }
        flags |= self.rcode.to_u8() as u16;
        out.extend_from_slice(&flags.to_be_bytes());
        out.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.authority.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.additional.len() as u16).to_be_bytes());
        for q in &self.questions {
            q.qname.encode(&mut out, table);
            out.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // IN
        }
        for section in [&self.answers, &self.authority, &self.additional] {
            for r in section {
                encode_record(r, &mut out, table);
            }
        }
        out
    }

    /// Parses and validates a message.
    ///
    /// # Errors
    ///
    /// [`NameError::BadWire`] on any structural problem — malformed input
    /// is rejected wholesale, never partially trusted (§2.3.2).
    pub fn parse(data: &[u8]) -> Result<Message, NameError> {
        if data.len() < 12 {
            return Err(NameError::BadWire);
        }
        let id = u16::from_be_bytes([data[0], data[1]]);
        let flags = u16::from_be_bytes([data[2], data[3]]);
        let counts: [usize; 4] = std::array::from_fn(|i| {
            u16::from_be_bytes([data[4 + 2 * i], data[5 + 2 * i]]) as usize
        });
        // Count sanity: a question needs at least 5 wire bytes and a record
        // at least 11, so counts claiming more than the datagram could hold
        // are length-field lies — rejected before allocating or looping.
        let min_len = 12 + counts[0] * 5 + (counts[1] + counts[2] + counts[3]) * 11;
        if min_len > data.len() {
            return Err(NameError::BadWire);
        }
        let mut pos = 12;
        let mut questions = Vec::with_capacity(counts[0]);
        for _ in 0..counts[0] {
            let (qname, used) = DnsName::decode(data, pos)?;
            pos += used;
            let qtype = RType::from_u16(u16::from_be_bytes(
                data.get(pos..pos + 2)
                    .ok_or(NameError::BadWire)?
                    .try_into()
                    .expect("2 bytes"),
            ));
            pos += 4; // type + class
            if pos > data.len() {
                return Err(NameError::BadWire);
            }
            questions.push(Question { qname, qtype });
        }
        let mut sections: [Vec<Record>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, section) in sections.iter_mut().enumerate() {
            for _ in 0..counts[i + 1] {
                let (record, used) = parse_record(data, pos)?;
                pos += used;
                section.push(record);
            }
        }
        let [answers, authority, additional] = sections;
        Ok(Message {
            id,
            is_response: flags & 0x8000 != 0,
            authoritative: flags & 0x0400 != 0,
            rd: flags & 0x0100 != 0,
            rcode: Rcode::from_u8(flags as u8),
            questions,
            answers,
            authority,
            additional,
        })
    }
}

fn encode_record<'a>(r: &'a Record, out: &mut Vec<u8>, table: &mut CompressionTable<'a>) {
    r.name.encode(out, table);
    out.extend_from_slice(&r.rdata.rtype().to_u16().to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // IN
    out.extend_from_slice(&r.ttl.to_be_bytes());
    let len_at = out.len();
    out.extend_from_slice(&[0, 0]);
    let data_start = out.len();
    match &r.rdata {
        RData::A(ip) => out.extend_from_slice(&ip.octets()),
        RData::Ns(n) | RData::Cname(n) => n.encode(out, table),
        RData::Soa {
            mname,
            rname,
            serial,
        } => {
            mname.encode(out, table);
            rname.encode(out, table);
            out.extend_from_slice(&serial.to_be_bytes());
            // refresh/retry/expire/minimum: fixed sane defaults.
            for v in [3600u32, 900, 604800, 300] {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        RData::Mx {
            preference,
            exchange,
        } => {
            out.extend_from_slice(&preference.to_be_bytes());
            exchange.encode(out, table);
        }
        RData::Txt(t) => {
            // Single character-string.
            out.push(t.len().min(255) as u8);
            out.extend_from_slice(&t[..t.len().min(255)]);
        }
        RData::Raw(raw) => out.extend_from_slice(raw),
    }
    let rdlen = (out.len() - data_start) as u16;
    out[len_at..len_at + 2].copy_from_slice(&rdlen.to_be_bytes());
}

fn parse_record(data: &[u8], pos: usize) -> Result<(Record, usize), NameError> {
    let (name, used) = DnsName::decode(data, pos)?;
    let mut at = pos + used;
    let fixed = data.get(at..at + 10).ok_or(NameError::BadWire)?;
    let rtype = RType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]]));
    let ttl = u32::from_be_bytes(fixed[4..8].try_into().expect("4 bytes"));
    let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
    at += 10;
    let rdata_bytes = data.get(at..at + rdlen).ok_or(NameError::BadWire)?;
    let rdata = match rtype {
        RType::A => {
            if rdlen != 4 {
                return Err(NameError::BadWire);
            }
            RData::A(Ipv4Addr::new(
                rdata_bytes[0],
                rdata_bytes[1],
                rdata_bytes[2],
                rdata_bytes[3],
            ))
        }
        RType::Ns => RData::Ns(DnsName::decode(data, at)?.0),
        RType::Cname => RData::Cname(DnsName::decode(data, at)?.0),
        RType::Soa => {
            let (mname, u1) = DnsName::decode(data, at)?;
            let (rname, u2) = DnsName::decode(data, at + u1)?;
            let serial_at = at + u1 + u2;
            let serial = u32::from_be_bytes(
                data.get(serial_at..serial_at + 4)
                    .ok_or(NameError::BadWire)?
                    .try_into()
                    .expect("4 bytes"),
            );
            RData::Soa {
                mname,
                rname,
                serial,
            }
        }
        RType::Mx => {
            if rdlen < 3 {
                return Err(NameError::BadWire);
            }
            let preference = u16::from_be_bytes([rdata_bytes[0], rdata_bytes[1]]);
            RData::Mx {
                preference,
                exchange: DnsName::decode(data, at + 2)?.0,
            }
        }
        RType::Txt => {
            if rdlen == 0 {
                RData::Txt(Vec::new())
            } else {
                let slen = rdata_bytes[0] as usize;
                RData::Txt(
                    rdata_bytes
                        .get(1..1 + slen)
                        .ok_or(NameError::BadWire)?
                        .to_vec(),
                )
            }
        }
        RType::Other(_) => RData::Raw(rdata_bytes.to_vec()),
    };
    Ok((
        Record { name, ttl, rdata },
        used + 10 + rdlen,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    #[test]
    fn query_round_trip() {
        let q = Message::query(0x1234, name("www.example.org"), RType::A);
        let wire = q.encode();
        let parsed = Message::parse(&wire).unwrap();
        assert_eq!(parsed, q);
    }

    #[test]
    fn response_with_all_record_types_round_trips() {
        let q = Message::query(7, name("example.org"), RType::A);
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.answers.push(Record {
            name: name("example.org"),
            ttl: 300,
            rdata: RData::A(Ipv4Addr::new(10, 0, 0, 1)),
        });
        r.answers.push(Record {
            name: name("alias.example.org"),
            ttl: 300,
            rdata: RData::Cname(name("example.org")),
        });
        r.authority.push(Record {
            name: name("example.org"),
            ttl: 300,
            rdata: RData::Ns(name("ns1.example.org")),
        });
        r.authority.push(Record {
            name: name("example.org"),
            ttl: 300,
            rdata: RData::Soa {
                mname: name("ns1.example.org"),
                rname: name("hostmaster.example.org"),
                serial: 2013031601,
            },
        });
        r.additional.push(Record {
            name: name("example.org"),
            ttl: 300,
            rdata: RData::Mx {
                preference: 10,
                exchange: name("mail.example.org"),
            },
        });
        r.additional.push(Record {
            name: name("example.org"),
            ttl: 300,
            rdata: RData::Txt(b"v=spf1 -all".to_vec()),
        });
        let wire = r.encode();
        let parsed = Message::parse(&wire).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn compression_shrinks_responses() {
        let q = Message::query(1, name("host.example.org"), RType::A);
        let mut r = Message::response_to(&q, Rcode::NoError);
        for i in 0..10 {
            r.answers.push(Record {
                name: name("host.example.org"),
                ttl: 60,
                rdata: RData::A(Ipv4Addr::new(10, 0, 0, i)),
            });
        }
        let compressed = r.encode();
        // Re-encode each record's name uncompressed for comparison.
        let uncompressed_size = 12
            + (name("host.example.org").encode_uncompressed().len() + 4)
            + 10 * (name("host.example.org").encode_uncompressed().len() + 14);
        assert!(
            compressed.len() < uncompressed_size * 2 / 3,
            "{} vs {}",
            compressed.len(),
            uncompressed_size
        );
    }

    #[test]
    fn malformed_messages_rejected() {
        assert!(Message::parse(&[0u8; 4]).is_err(), "truncated header");
        let q = Message::query(1, name("a.b"), RType::A);
        let mut wire = q.encode();
        wire[4] = 0xFF; // claim 65k questions
        wire[5] = 0xFF;
        assert!(Message::parse(&wire).is_err());
    }

    #[test]
    fn rcode_round_trip() {
        for rc in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::NotImp,
            Rcode::Refused,
        ] {
            assert_eq!(Rcode::from_u8(rc.to_u8()), rc);
        }
    }
}
