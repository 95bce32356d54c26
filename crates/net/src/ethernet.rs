//! Ethernet II framing.

use crate::addr::Mac;

/// Minimum frame size we accept (header only; padding is not enforced —
/// the virtual switch does not require it).
pub const HEADER_LEN: usize = 14;

/// Protocol carried in a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// A parsed Ethernet frame (borrowing the payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Destination MAC.
    pub dst: Mac,
    /// Source MAC.
    pub src: Mac,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// Payload bytes.
    pub payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Parses a frame; `None` if shorter than the header.
    pub fn parse(data: &'a [u8]) -> Option<Frame<'a>> {
        if data.len() < HEADER_LEN {
            return None;
        }
        Some(Frame {
            dst: Mac(data[0..6].try_into().ok()?),
            src: Mac(data[6..12].try_into().ok()?),
            ethertype: EtherType::from_u16(u16::from_be_bytes([data[12], data[13]])),
            payload: &data[HEADER_LEN..],
        })
    }
}

/// Writes the header at the start of `buf` and returns its length — the
/// only code that knows the Ethernet II layout.
pub fn write_header(buf: &mut [u8], dst: Mac, src: Mac, ethertype: EtherType) -> usize {
    buf[0..6].copy_from_slice(dst.as_bytes());
    buf[6..12].copy_from_slice(src.as_bytes());
    buf[12..14].copy_from_slice(&ethertype.to_u16().to_be_bytes());
    HEADER_LEN
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    fn build(dst: Mac, src: Mac, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
        let mut f = vec![0; HEADER_LEN + payload.len()];
        write_header(&mut f, dst, src, ethertype);
        f[HEADER_LEN..].copy_from_slice(payload);
        f
    }

    #[test]
    fn build_parse_round_trip() {
        let frame = build(Mac::local(1), Mac::local(2), EtherType::Ipv4, b"payload");
        let parsed = Frame::parse(&frame).unwrap();
        assert_eq!(parsed.dst, Mac::local(1));
        assert_eq!(parsed.src, Mac::local(2));
        assert_eq!(parsed.ethertype, EtherType::Ipv4);
        assert_eq!(parsed.payload, b"payload");
    }

    #[test]
    fn runt_frames_rejected() {
        assert!(Frame::parse(&[0u8; 13]).is_none());
        assert!(Frame::parse(&[0u8; 14]).is_some());
    }

    #[test]
    fn unknown_ethertype_preserved() {
        assert_eq!(EtherType::from_u16(0x86DD), EtherType::Other(0x86DD));
        assert_eq!(EtherType::Other(0x86DD).to_u16(), 0x86DD);
    }

    mirage_testkit::property! {
        fn prop_round_trip(dst in any::<[u8;6]>(), src in any::<[u8;6]>(),
                           et in any::<u16>(),
                           payload in collection::vec(any::<u8>(), 0..256)) {
            let frame = build(Mac(dst), Mac(src), EtherType::from_u16(et), &payload);
            let parsed = Frame::parse(&frame).unwrap();
            assert_eq!(parsed.dst, Mac(dst));
            assert_eq!(parsed.src, Mac(src));
            assert_eq!(parsed.ethertype.to_u16(), et);
            assert_eq!(parsed.payload, &payload[..]);
        }
    }
}
