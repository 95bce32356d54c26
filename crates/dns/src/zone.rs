//! Zone files and the in-memory zone database.
//!
//! The Mirage DNS appliance stores "the zone in standard Bind9 format"
//! (paper §4.2) in a simple in-memory filesystem; this module parses that
//! format (a practical subset: `$ORIGIN`, `$TTL`, `IN` records of the
//! types in [`crate::wire::RType`]) and builds the lookup structure the
//! server answers from. [`Zone::synthesize`] generates the parameterised
//! zones the Figure 10 `queryperf` benchmark sweeps over.

use std::net::Ipv4Addr;

use mirage_testkit::hash::DetHashMap;

use crate::name::{DnsName, NameError};
use crate::wire::{RData, RType, Record};

/// Errors from zone parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneError {
    /// A line failed to parse.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A name was invalid.
    Name(NameError),
    /// The zone has no SOA record.
    NoSoa,
}

impl std::fmt::Display for ZoneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZoneError::Syntax { line, reason } => write!(f, "line {line}: {reason}"),
            ZoneError::Name(e) => write!(f, "invalid name: {e}"),
            ZoneError::NoSoa => f.write_str("zone has no SOA record"),
        }
    }
}

impl std::error::Error for ZoneError {}

impl From<NameError> for ZoneError {
    fn from(e: NameError) -> ZoneError {
        ZoneError::Name(e)
    }
}

/// An authoritative zone: origin plus a name→records index.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: DnsName,
    records: DetHashMap<DnsName, Vec<Record>>,
    record_count: usize,
}

impl Zone {
    /// Parses a Bind9-style zone file.
    ///
    /// # Errors
    ///
    /// [`ZoneError::Syntax`] with the offending line, [`ZoneError::NoSoa`]
    /// if the zone lacks an SOA.
    pub fn parse(text: &str) -> Result<Zone, ZoneError> {
        let mut origin = DnsName::root();
        let mut default_ttl = 300u32;
        let mut records: DetHashMap<DnsName, Vec<Record>> = DetHashMap::default();
        let mut record_count = 0usize;
        let mut last_name: Option<DnsName> = None;
        let mut has_soa = false;

        for (idx, raw_line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw_line.split(';').next().unwrap_or("").trim_end();
            if line.trim().is_empty() {
                continue;
            }
            let syntax = |reason: &str| ZoneError::Syntax {
                line: line_no,
                reason: reason.to_owned(),
            };
            if let Some(rest) = line.strip_prefix("$ORIGIN") {
                origin = DnsName::parse(rest.trim())?;
                continue;
            }
            if let Some(rest) = line.strip_prefix("$TTL") {
                default_ttl = rest
                    .trim()
                    .parse()
                    .map_err(|_| syntax("invalid $TTL value"))?;
                continue;
            }

            // RECORD: [name] [ttl] IN TYPE rdata...
            let starts_blank = raw_line.starts_with(' ') || raw_line.starts_with('\t');
            let mut tokens: Vec<&str> = line.split_whitespace().collect();
            if tokens.is_empty() {
                continue;
            }
            let name = if starts_blank {
                last_name.clone().ok_or_else(|| syntax("no previous owner name"))?
            } else {
                let tok = tokens.remove(0);
                let name = if tok == "@" {
                    origin.clone()
                } else if tok.ends_with('.') {
                    DnsName::parse(tok)?
                } else {
                    // Relative to origin.
                    let mut n = origin.clone();
                    for label in tok.split('.').rev() {
                        n = n.child(label)?;
                    }
                    n
                };
                last_name = Some(name.clone());
                name
            };
            // Optional TTL.
            let ttl = if tokens
                .first()
                .map(|t| t.chars().all(|c| c.is_ascii_digit()))
                .unwrap_or(false)
            {
                tokens.remove(0).parse().unwrap_or(default_ttl)
            } else {
                default_ttl
            };
            // Optional class.
            if tokens.first().map(|t| t.eq_ignore_ascii_case("IN")).unwrap_or(false) {
                tokens.remove(0);
            }
            let Some(rtype_tok) = tokens.first().copied() else {
                return Err(syntax("missing record type"));
            };
            tokens.remove(0);
            let resolve = |tok: &str| -> Result<DnsName, ZoneError> {
                if tok == "@" {
                    Ok(origin.clone())
                } else if tok.ends_with('.') {
                    Ok(DnsName::parse(tok)?)
                } else {
                    let mut n = origin.clone();
                    for label in tok.split('.').rev() {
                        n = n.child(label)?;
                    }
                    Ok(n)
                }
            };
            let rdata = match rtype_tok.to_ascii_uppercase().as_str() {
                "A" => {
                    let ip: Ipv4Addr = tokens
                        .first()
                        .ok_or_else(|| syntax("A record needs an address"))?
                        .parse()
                        .map_err(|_| syntax("invalid IPv4 address"))?;
                    RData::A(ip)
                }
                "NS" => RData::Ns(resolve(
                    tokens.first().ok_or_else(|| syntax("NS needs a target"))?,
                )?),
                "CNAME" => RData::Cname(resolve(
                    tokens
                        .first()
                        .ok_or_else(|| syntax("CNAME needs a target"))?,
                )?),
                "MX" => {
                    let preference = tokens
                        .first()
                        .ok_or_else(|| syntax("MX needs a preference"))?
                        .parse()
                        .map_err(|_| syntax("invalid MX preference"))?;
                    RData::Mx {
                        preference,
                        exchange: resolve(
                            tokens.get(1).ok_or_else(|| syntax("MX needs an exchange"))?,
                        )?,
                    }
                }
                "TXT" => RData::Txt(
                    tokens
                        .join(" ")
                        .trim_matches('"')
                        .as_bytes()
                        .to_vec(),
                ),
                "SOA" => {
                    has_soa = true;
                    let mname = resolve(
                        tokens.first().ok_or_else(|| syntax("SOA needs mname"))?,
                    )?;
                    let rname = resolve(
                        tokens.get(1).ok_or_else(|| syntax("SOA needs rname"))?,
                    )?;
                    let serial = tokens
                        .get(2)
                        .and_then(|t| t.trim_start_matches('(').parse().ok())
                        .unwrap_or(1);
                    RData::Soa {
                        mname,
                        rname,
                        serial,
                    }
                }
                other => {
                    return Err(syntax(&format!("unsupported record type {other}")));
                }
            };
            records.entry(name.clone()).or_default().push(Record {
                name,
                ttl,
                rdata,
            });
            record_count += 1;
        }
        if !has_soa {
            return Err(ZoneError::NoSoa);
        }
        Ok(Zone {
            origin,
            records,
            record_count,
        })
    }

    /// Generates a synthetic zone of `entries` A records under `origin` —
    /// the Figure 10 zone-size parameter ("Zone size (entries)").
    pub fn synthesize(origin: &str, entries: usize) -> Zone {
        let mut text = String::with_capacity(entries * 32 + 128);
        text.push_str(&format!("$ORIGIN {origin}.\n$TTL 300\n"));
        text.push_str("@ IN SOA ns1 hostmaster 2013031601\n");
        text.push_str("@ IN NS ns1\n");
        text.push_str("ns1 IN A 10.0.0.53\n");
        for i in 0..entries {
            let a = (i >> 8) & 0xFF;
            let b = i & 0xFF;
            text.push_str(&format!("host{i} IN A 10.1.{a}.{b}\n"));
        }
        Zone::parse(&text).expect("synthetic zone is well-formed")
    }

    /// The zone origin.
    pub fn origin(&self) -> &DnsName {
        &self.origin
    }

    /// Total records.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// All records for `name` (any type).
    pub fn lookup_all(&self, name: &DnsName) -> Option<&[Record]> {
        self.records.get(name).map(Vec::as_slice)
    }

    /// Records of a specific type for `name`.
    pub fn lookup(&self, name: &DnsName, rtype: RType) -> Vec<&Record> {
        self.records
            .get(name)
            .map(|rs| {
                rs.iter()
                    .filter(|r| r.rdata.rtype() == rtype)
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default()
    }

    /// Whether `name` falls under this zone's authority.
    pub fn is_authoritative_for(&self, name: &DnsName) -> bool {
        name.is_subdomain_of(&self.origin)
    }

    /// The zone's SOA record.
    pub fn soa(&self) -> Option<&Record> {
        self.records
            .get(&self.origin)
            .and_then(|rs| rs.iter().find(|r| r.rdata.rtype() == RType::Soa))
    }

    /// Iterates over every owner name (bench workload generation).
    pub fn names(&self) -> impl Iterator<Item = &DnsName> {
        self.records.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
; example.org test zone
$ORIGIN example.org.
$TTL 600
@       IN SOA ns1 hostmaster 2013031601
@       IN NS  ns1
ns1     IN A   10.0.0.53
www     600 IN A 10.0.0.80
        IN TXT "web server"
alias   IN CNAME www
mail    IN MX 10 mx1.example.org.
mx1     IN A   10.0.0.25
"#;

    #[test]
    fn parses_the_reference_zone() {
        let zone = Zone::parse(EXAMPLE).unwrap();
        assert_eq!(zone.origin().to_string(), "example.org");
        assert_eq!(zone.record_count(), 8);
        let www = DnsName::parse("www.example.org").unwrap();
        let a = zone.lookup(&www, RType::A);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].ttl, 600);
        assert!(matches!(a[0].rdata, RData::A(ip) if ip == Ipv4Addr::new(10, 0, 0, 80)));
        // The blank-name continuation attached the TXT to www.
        assert_eq!(zone.lookup(&www, RType::Txt).len(), 1);
    }

    #[test]
    fn cname_and_mx_resolve_relative_names() {
        let zone = Zone::parse(EXAMPLE).unwrap();
        let alias = DnsName::parse("alias.example.org").unwrap();
        let c = zone.lookup(&alias, RType::Cname);
        assert!(
            matches!(&c[0].rdata, RData::Cname(n) if n.to_string() == "www.example.org")
        );
        let mail = DnsName::parse("mail.example.org").unwrap();
        let mx = zone.lookup(&mail, RType::Mx);
        assert!(
            matches!(&mx[0].rdata, RData::Mx { preference: 10, exchange } if exchange.to_string() == "mx1.example.org")
        );
    }

    #[test]
    fn missing_soa_rejected() {
        assert_eq!(
            Zone::parse("$ORIGIN x.\nwww IN A 1.2.3.4\n").err(),
            Some(ZoneError::NoSoa)
        );
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = Zone::parse("$ORIGIN x.\n@ IN SOA ns1 h 1\nbad IN A not-an-ip\n").unwrap_err();
        assert!(matches!(err, ZoneError::Syntax { line: 3, .. }), "{err}");
    }

    #[test]
    fn synthetic_zones_scale() {
        for entries in [100usize, 1000] {
            let zone = Zone::synthesize("bench.example", entries);
            assert_eq!(zone.record_count(), entries + 3);
            let name = DnsName::parse(&format!("host{}.bench.example", entries - 1)).unwrap();
            assert_eq!(zone.lookup(&name, RType::A).len(), 1);
        }
    }

    #[test]
    fn authority_boundaries() {
        let zone = Zone::parse(EXAMPLE).unwrap();
        assert!(zone.is_authoritative_for(&DnsName::parse("deep.sub.example.org").unwrap()));
        assert!(!zone.is_authoritative_for(&DnsName::parse("example.com").unwrap()));
        assert!(zone.soa().is_some());
    }
}
