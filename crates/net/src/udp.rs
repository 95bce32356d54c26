//! UDP — the DNS appliance's transport (paper §4.2).

use std::net::Ipv4Addr;
use std::ops::Range;

use crate::checksum;
use crate::ipv4::protocol;

/// Header length.
pub const HEADER_LEN: usize = 8;

/// A parsed UDP datagram (borrowing the payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpDatagram<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload.
    pub payload: &'a [u8],
}

impl<'a> UdpDatagram<'a> {
    /// Parses and checksums a datagram out of an IPv4 payload.
    pub fn parse(src: Ipv4Addr, dst: Ipv4Addr, data: &'a [u8]) -> Option<UdpDatagram<'a>> {
        if data.len() < HEADER_LEN {
            return None;
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < HEADER_LEN || data.len() < len {
            return None;
        }
        let cks = u16::from_be_bytes([data[6], data[7]]);
        // Checksum 0 means "not computed" (legal for IPv4 UDP).
        if cks != 0 && !checksum::verify_pseudo(src, dst, protocol::UDP, &data[..len]) {
            return None;
        }
        Some(UdpDatagram {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: &data[HEADER_LEN..len],
        })
    }

    /// Where the payload sits in the bytes that were parsed.
    pub fn payload_range(&self) -> Range<usize> {
        HEADER_LEN..HEADER_LEN + self.payload.len()
    }
}

/// Writes header, payload and pseudo-header checksum at the start of
/// `buf` and returns the datagram length — the only code that knows the
/// UDP layout. Panics if that length does not fit its 16-bit field.
pub fn write(
    buf: &mut [u8],
    src: Ipv4Addr,
    src_port: u16,
    dst: Ipv4Addr,
    dst_port: u16,
    payload: &[u8],
) -> usize {
    let len = HEADER_LEN + payload.len();
    let d = &mut buf[..len];
    d[0..2].copy_from_slice(&src_port.to_be_bytes());
    d[2..4].copy_from_slice(&dst_port.to_be_bytes());
    let len16 = u16::try_from(len).expect("UDP length fits 16 bits");
    d[4..6].copy_from_slice(&len16.to_be_bytes());
    d[6..8].copy_from_slice(&[0, 0]); // checksum, filled below
    d[HEADER_LEN..].copy_from_slice(payload);
    let mut c = checksum::pseudo_checksum(src, dst, protocol::UDP, d);
    if c == 0 {
        c = 0xFFFF; // 0 is reserved for "no checksum"
    }
    d[6..8].copy_from_slice(&c.to_be_bytes());
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn build(
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut d = vec![0; HEADER_LEN + payload.len()];
        write(&mut d, src, src_port, dst, dst_port, payload);
        d
    }

    #[test]
    fn round_trip() {
        let wire = build(SRC, 53, DST, 1234, b"dns query");
        let d = UdpDatagram::parse(SRC, DST, &wire).unwrap();
        assert_eq!(d.src_port, 53);
        assert_eq!(d.dst_port, 1234);
        assert_eq!(d.payload, b"dns query");
    }

    #[test]
    fn write_owns_exactly_its_bytes() {
        // A buffer with stale bytes in it, longer than the datagram.
        let mut buf = [0xAA; 32];
        let len = write(&mut buf, SRC, 53, DST, 1234, b"dns query");
        assert_eq!(buf[..len], build(SRC, 53, DST, 1234, b"dns query"));
        assert!(buf[len..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    #[should_panic(expected = "fits 16 bits")]
    fn oversized_datagram_is_not_built() {
        build(SRC, 1, DST, 2, &vec![0; 70_000]);
    }

    #[test]
    fn wrong_pseudo_header_rejected() {
        let wire = build(SRC, 53, DST, 1234, b"x");
        let other = Ipv4Addr::new(192, 168, 1, 1);
        assert!(
            UdpDatagram::parse(SRC, other, &wire).is_none(),
            "pseudo-header binds addresses"
        );
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut wire = build(SRC, 1, DST, 2, b"nochecksum");
        wire[6] = 0;
        wire[7] = 0;
        assert!(UdpDatagram::parse(SRC, DST, &wire).is_some());
    }

    #[test]
    fn truncated_rejected() {
        let wire = build(SRC, 1, DST, 2, b"payload");
        assert!(UdpDatagram::parse(SRC, DST, &wire[..10]).is_none());
        assert!(UdpDatagram::parse(SRC, DST, &wire[..7]).is_none());
    }

    mirage_testkit::property! {
        fn prop_round_trip(sp in any::<u16>(), dp in any::<u16>(),
                           payload in collection::vec(any::<u8>(), 0..512)) {
            let wire = build(SRC, sp, DST, dp, &payload);
            let d = UdpDatagram::parse(SRC, DST, &wire).unwrap();
            assert_eq!(d.src_port, sp);
            assert_eq!(d.dst_port, dp);
            assert_eq!(d.payload, &payload[..]);
        }
    }
}
