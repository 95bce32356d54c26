//! IPv4 header processing.
//!
//! Fragmentation is intentionally not implemented: the stack's TCP MSS and
//! UDP payload cap keep every datagram within the device MTU, matching the
//! Mirage stack of the paper (whose evaluation runs entirely on
//! MSS-bounded traffic).

use std::net::Ipv4Addr;
use std::ops::Range;

use crate::checksum;

/// Fixed header length (no options emitted).
pub const HEADER_LEN: usize = 20;

/// Protocol numbers used by the stack.
pub mod protocol {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// A parsed IPv4 packet (borrowing the payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Packet<'a> {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol number.
    pub protocol: u8,
    /// Remaining hop budget.
    pub ttl: u8,
    /// Transport payload.
    pub payload: &'a [u8],
    /// Validated header length (IHL × 4): where the payload starts.
    header_len: usize,
}

/// Why a packet was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ipv4Error {
    /// Shorter than the header, or shorter than its own length field.
    Truncated,
    /// Not version 4 or unsupported IHL.
    BadVersion,
    /// Header checksum mismatch.
    BadChecksum,
    /// A fragment (not supported).
    Fragmented,
}

impl std::fmt::Display for Ipv4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            Ipv4Error::Truncated => "packet truncated",
            Ipv4Error::BadVersion => "not an IPv4 packet",
            Ipv4Error::BadChecksum => "header checksum mismatch",
            Ipv4Error::Fragmented => "fragmented packets are not supported",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for Ipv4Error {}

impl<'a> Ipv4Packet<'a> {
    /// Parses and validates a packet.
    ///
    /// # Errors
    ///
    /// See [`Ipv4Error`]; packets with options are accepted (the option
    /// bytes are skipped).
    pub fn parse(data: &'a [u8]) -> Result<Ipv4Packet<'a>, Ipv4Error> {
        if data.len() < HEADER_LEN {
            return Err(Ipv4Error::Truncated);
        }
        if data[0] >> 4 != 4 {
            return Err(Ipv4Error::BadVersion);
        }
        let ihl = (data[0] & 0x0F) as usize * 4;
        if ihl < HEADER_LEN || data.len() < ihl {
            return Err(Ipv4Error::BadVersion);
        }
        if !checksum::verify(&data[..ihl]) {
            return Err(Ipv4Error::BadChecksum);
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < ihl || data.len() < total_len {
            return Err(Ipv4Error::Truncated);
        }
        let flags_frag = u16::from_be_bytes([data[6], data[7]]);
        let more_fragments = flags_frag & 0x2000 != 0;
        let frag_offset = flags_frag & 0x1FFF;
        if more_fragments || frag_offset != 0 {
            return Err(Ipv4Error::Fragmented);
        }
        Ok(Ipv4Packet {
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            protocol: data[9],
            ttl: data[8],
            payload: &data[ihl..total_len],
            header_len: ihl,
        })
    }

    /// Where the payload sits in the bytes that were parsed. It is not a
    /// suffix of them: Ethernet padding may trail the total length.
    pub fn payload_range(&self) -> Range<usize> {
        self.header_len..self.header_len + self.payload.len()
    }
}

/// Writes a fresh header (DF set, no options) for `payload_len` bytes of
/// payload at the start of `buf`, checksum included, and returns its
/// length — the only code that knows the IPv4 header layout. Panics if the
/// total length does not fit its 16-bit field.
pub fn write_header(
    buf: &mut [u8],
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    ident: u16,
    payload_len: usize,
) -> usize {
    let total_len =
        u16::try_from(HEADER_LEN + payload_len).expect("IPv4 total length fits 16 bits");
    let h = &mut buf[..HEADER_LEN];
    h[0] = 0x45; // version 4, IHL 5
    h[1] = 0; // DSCP/ECN
    h[2..4].copy_from_slice(&total_len.to_be_bytes());
    h[4..6].copy_from_slice(&ident.to_be_bytes());
    h[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // DF
    h[8] = 64; // TTL
    h[9] = protocol;
    h[10..12].copy_from_slice(&[0, 0]); // checksum, filled below
    h[12..16].copy_from_slice(&src.octets());
    h[16..20].copy_from_slice(&dst.octets());
    let c = checksum::checksum(h);
    h[10..12].copy_from_slice(&c.to_be_bytes());
    HEADER_LEN
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn build(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, ident: u16, payload: &[u8]) -> Vec<u8> {
        let mut p = vec![0; HEADER_LEN + payload.len()];
        write_header(&mut p, src, dst, protocol, ident, payload.len());
        p[HEADER_LEN..].copy_from_slice(payload);
        p
    }

    #[test]
    fn build_parse_round_trip() {
        let wire = build(SRC, DST, protocol::UDP, 42, b"datagram");
        let pkt = Ipv4Packet::parse(&wire).unwrap();
        assert_eq!(pkt.src, SRC);
        assert_eq!(pkt.dst, DST);
        assert_eq!(pkt.protocol, protocol::UDP);
        assert_eq!(pkt.payload, b"datagram");
        assert_eq!(pkt.ttl, 64);
    }

    #[test]
    fn write_header_owns_exactly_its_bytes() {
        // A buffer with stale bytes in it, longer than the header.
        let mut buf = [0xAA; 32];
        assert_eq!(
            write_header(&mut buf, SRC, DST, protocol::UDP, 42, 8),
            HEADER_LEN
        );
        assert_eq!(
            buf[..HEADER_LEN],
            build(SRC, DST, protocol::UDP, 42, &[0; 8])[..HEADER_LEN]
        );
        assert!(buf[HEADER_LEN..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    #[should_panic(expected = "fits 16 bits")]
    fn oversized_packet_is_not_built() {
        build(SRC, DST, protocol::UDP, 1, &vec![0; 70_000]);
    }

    #[test]
    fn corrupt_header_rejected() {
        let mut wire = build(SRC, DST, protocol::TCP, 1, b"x");
        wire[8] = 1; // change TTL without fixing checksum
        assert_eq!(Ipv4Packet::parse(&wire), Err(Ipv4Error::BadChecksum));
    }

    #[test]
    fn trailing_bytes_ignored_via_total_length() {
        let mut wire = build(SRC, DST, protocol::TCP, 1, b"abc");
        wire.extend_from_slice(b"ethernet-padding");
        let pkt = Ipv4Packet::parse(&wire).unwrap();
        assert_eq!(pkt.payload, b"abc", "padding stripped");
    }

    #[test]
    fn fragments_rejected() {
        let mut wire = build(SRC, DST, protocol::TCP, 1, b"x");
        wire[6] = 0x20; // MF
        let c = checksum::checksum(&{
            let mut h = wire[..HEADER_LEN].to_vec();
            h[10] = 0;
            h[11] = 0;
            h
        });
        wire[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(Ipv4Packet::parse(&wire), Err(Ipv4Error::Fragmented));
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut wire = build(SRC, DST, protocol::TCP, 1, b"x");
        wire[0] = 0x65; // version 6
        assert_eq!(Ipv4Packet::parse(&wire), Err(Ipv4Error::BadVersion));
        assert_eq!(Ipv4Packet::parse(&[]), Err(Ipv4Error::Truncated));
    }

    mirage_testkit::property! {
        fn prop_round_trip(src in any::<u32>(), dst in any::<u32>(), proto in any::<u8>(),
                           ident in any::<u16>(),
                           payload in collection::vec(any::<u8>(), 0..512)) {
            let src = Ipv4Addr::from(src);
            let dst = Ipv4Addr::from(dst);
            let wire = build(src, dst, proto, ident, &payload);
            let pkt = Ipv4Packet::parse(&wire).unwrap();
            assert_eq!(pkt.src, src);
            assert_eq!(pkt.dst, dst);
            assert_eq!(pkt.protocol, proto);
            assert_eq!(pkt.payload, &payload[..]);
        }
    }
}
