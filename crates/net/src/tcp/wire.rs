//! Wire format: segment parsing and serialisation.
//!
//! Pure functions of bytes — no connection state lives here. Parsing is
//! checksum-verified and zero-copy: the payload of a [`TcpSegment`] is a
//! [`PktBuf`] view over the received frame's page. The parser reads
//! bytes from the wire, so this module's non-test code may not index,
//! slice, unwrap or panic: every read is a `get` or a checked split.

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

use mirage_cstruct::PktBuf;

use crate::checksum;
use crate::ipv4::protocol;

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// SYN.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// FIN.
    pub fin: bool,
    /// RST.
    pub rst: bool,
    /// PSH.
    pub psh: bool,
}

impl Flags {
    /// Just ACK.
    pub const ACK: Flags = Flags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };

    /// The header's flag byte: FIN is bit 0, then SYN, RST, PSH, ACK.
    fn to_byte(self) -> u8 {
        u8::from(self.fin)
            | u8::from(self.syn) << 1
            | u8::from(self.rst) << 2
            | u8::from(self.psh) << 3
            | u8::from(self.ack) << 4
    }

    /// From the header's flag byte.
    fn from_byte(byte: u8) -> Flags {
        let bit = |n: u8| byte >> n & 1 != 0;
        Flags {
            fin: bit(0),
            syn: bit(1),
            rst: bit(2),
            psh: bit(3),
            ack: bit(4),
        }
    }
}

/// A parsed TCP segment. The payload is a [`PktBuf`] view over the received
/// frame's page — parsing never copies payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number (valid when `flags.ack`).
    pub ack: u32,
    /// Header flags.
    pub flags: Flags,
    /// Raw (unscaled) window field.
    pub window: u16,
    /// MSS option, if present.
    pub mss: Option<u16>,
    /// Window-scale option, if present.
    pub wscale: Option<u8>,
    /// SACK-permitted option (RFC 2018 kind 4) present.
    pub sack_permitted: bool,
    /// The first block `(left, right)` of a SACK option (kind 5), if any:
    /// a block ending at or below `ack` is a D-SACK (RFC 2883).
    pub sack: Option<(u32, u32)>,
    /// Payload (a view into the same page as the headers).
    pub payload: PktBuf,
}

impl TcpSegment {
    /// Parses and checksum-verifies a segment from an IPv4 payload view.
    pub fn parse(
        src: std::net::Ipv4Addr,
        dst: std::net::Ipv4Addr,
        buf: &PktBuf,
    ) -> Option<TcpSegment> {
        let data = buf.as_slice();
        let (header, _) = data.split_first_chunk::<20>()?;
        if !checksum::verify_pseudo(src, dst, protocol::TCP, data) {
            return None;
        }
        let [sp0, sp1, dp0, dp1, s0, s1, s2, s3, a0, a1, a2, a3, off, flags, w0, w1, ..] = *header;
        let data_off = usize::from(off >> 4) * 4;
        let mut opts = data.get(20..data_off)?;
        let mut seg = TcpSegment {
            src_port: u16::from_be_bytes([sp0, sp1]),
            dst_port: u16::from_be_bytes([dp0, dp1]),
            seq: u32::from_be_bytes([s0, s1, s2, s3]),
            ack: u32::from_be_bytes([a0, a1, a2, a3]),
            flags: Flags::from_byte(flags),
            window: u16::from_be_bytes([w0, w1]),
            mss: None,
            wscale: None,
            sack_permitted: false,
            sack: None,
            // The payload is a suffix of the TCP segment, so a sub-view
            // of the same page suffices — no copy.
            payload: buf.slice(data_off..),
        };
        while let Some((&kind, rest)) = opts.split_first() {
            match kind {
                0 => break,
                1 => {
                    opts = rest;
                    continue;
                }
                _ => {}
            }
            // Every other option is kind, length, body; a length that
            // runs past the header is malformed.
            let len = usize::from(*rest.first()?);
            if len < 2 {
                return None;
            }
            let (opt, tail) = opts.split_at_checked(len)?;
            opts = tail;
            let (_, body) = opt.split_at_checked(2)?;
            // A known kind at the wrong length is skipped, as an unknown one.
            match (kind, body) {
                (2, &[hi, lo]) => seg.mss = Some(u16::from_be_bytes([hi, lo])),
                (3, &[shift]) => seg.wscale = Some(shift),
                (4, []) => seg.sack_permitted = true,
                (5, blocks) if blocks.len() % 8 == 0 => {
                    if let Some((&[l0, l1, l2, l3, r0, r1, r2, r3], _)) = blocks.split_first_chunk()
                    {
                        seg.sack = Some((
                            u32::from_be_bytes([l0, l1, l2, l3]),
                            u32::from_be_bytes([r0, r1, r2, r3]),
                        ));
                    }
                }
                _ => {}
            }
        }
        Some(seg)
    }
}

/// A segment the state machine wants transmitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentOut {
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flags.
    pub flags: Flags,
    /// Raw window field.
    pub window: u16,
    /// MSS option to include.
    pub mss: Option<u16>,
    /// Window-scale option to include.
    pub wscale: Option<u8>,
    /// Include the SACK-permitted option (SYN and SYN+ACK only).
    pub sack_permitted: bool,
    /// One SACK block `(left, right)` to include: the state machine sends
    /// only D-SACK blocks (RFC 2883), reporting a duplicate it received.
    pub sack: Option<(u32, u32)>,
    /// Payload bytes — a refcounted view into the send buffer, not a copy.
    pub payload: PktBuf,
}

/// Header length of `out` on the wire: the fixed 20 bytes plus its
/// options (MSS: 4; window scale: 3 and a NOP pad; SACK-permitted: 2 and
/// two NOPs; one SACK block: 10 and two NOPs).
fn header_len(out: &SegmentOut) -> usize {
    20 + 4 * usize::from(out.mss.is_some())
        + 4 * usize::from(out.wscale.is_some())
        + 4 * usize::from(out.sack_permitted)
        + 12 * usize::from(out.sack.is_some())
}

/// Length of `out` on the wire, header and payload.
pub fn segment_len(out: &SegmentOut) -> usize {
    header_len(out) + out.payload.len()
}

/// Writes header, options, payload and pseudo-header checksum at the
/// start of `buf` ([`segment_len`] bytes) and returns that length — the
/// only code that knows the TCP layout, and the one place payload is
/// serialised into a frame.
#[expect(
    clippy::indexing_slicing,
    reason = "`buf` holds at least `segment_len(out)` bytes (the caller's contract); \
              every index below is under `header_len(out)`, which counts each option written"
)]
pub fn write_segment(
    buf: &mut [u8],
    src: std::net::Ipv4Addr,
    src_port: u16,
    dst: std::net::Ipv4Addr,
    dst_port: u16,
    out: &SegmentOut,
) -> usize {
    let data_off = header_len(out);
    let len = data_off + out.payload.len();
    let d = &mut buf[..len];
    d[0..2].copy_from_slice(&src_port.to_be_bytes());
    d[2..4].copy_from_slice(&dst_port.to_be_bytes());
    d[4..8].copy_from_slice(&out.seq.to_be_bytes());
    d[8..12].copy_from_slice(&out.ack.to_be_bytes());
    d[12] = ((data_off / 4) as u8) << 4;
    d[13] = out.flags.to_byte();
    d[14..16].copy_from_slice(&out.window.to_be_bytes());
    d[16..20].copy_from_slice(&[0, 0, 0, 0]); // checksum (filled below) + urgent
    let mut at = 20;
    let mut put = |bytes: &[u8]| {
        d[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    if let Some(mss) = out.mss {
        put(&[2, 4]);
        put(&mss.to_be_bytes());
    }
    if let Some(ws) = out.wscale {
        put(&[3, 3, ws, 1]); // + NOP pad
    }
    if out.sack_permitted {
        put(&[1, 1, 4, 2]); // NOP pads + SACK-permitted
    }
    if let Some((left, right)) = out.sack {
        put(&[1, 1, 5, 10]); // NOP pads + one block
        put(&left.to_be_bytes());
        put(&right.to_be_bytes());
    }
    d[data_off..].copy_from_slice(&out.payload);
    if !out.payload.is_empty() {
        mirage_cstruct::record_serialize(out.payload.len());
    }
    let c = checksum::pseudo_checksum(src, dst, protocol::TCP, d);
    d[16..18].copy_from_slice(&c.to_be_bytes());
    len
}

/// Serialises a segment into an IPv4 payload with checksum.
pub fn build_segment(
    src: std::net::Ipv4Addr,
    src_port: u16,
    dst: std::net::Ipv4Addr,
    dst_port: u16,
    out: &SegmentOut,
) -> Vec<u8> {
    let mut d = vec![0; segment_len(out)];
    write_segment(&mut d, src, src_port, dst, dst_port, out);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn wire_format_round_trip_with_options() {
        let out = SegmentOut {
            seq: 0xDEADBEEF,
            ack: 0x01020304,
            flags: Flags {
                syn: true,
                ack: true,
                ..Flags::default()
            },
            window: 0xFFFF,
            mss: Some(1460),
            wscale: Some(7),
            sack_permitted: false,
            sack: None,
            payload: PktBuf::from_vec(b"hello".to_vec()),
        };
        let wire = PktBuf::from_vec(build_segment(A, 80, B, 1234, &out));
        let seg = TcpSegment::parse(A, B, &wire).unwrap();
        assert_eq!(seg.src_port, 80);
        assert_eq!(seg.dst_port, 1234);
        assert_eq!(seg.seq, 0xDEADBEEF);
        assert_eq!(seg.ack, 0x01020304);
        assert!(seg.flags.syn && seg.flags.ack);
        assert_eq!(seg.mss, Some(1460));
        assert_eq!(seg.wscale, Some(7));
        assert_eq!(seg.payload, b"hello");
    }

    #[test]
    fn sack_options_round_trip() {
        let syn = SegmentOut {
            seq: 1,
            ack: 0,
            flags: Flags {
                syn: true,
                ..Flags::default()
            },
            window: 0xFFFF,
            mss: Some(1460),
            wscale: Some(7),
            sack_permitted: true,
            sack: None,
            payload: PktBuf::empty(),
        };
        let wire = build_segment(A, 80, B, 1234, &syn);
        assert_eq!(wire.len(), 20 + 12, "SACK-permitted costs the SYN 4 bytes");
        let seg = TcpSegment::parse(A, B, &PktBuf::from_vec(wire)).unwrap();
        assert!(seg.sack_permitted);
        assert_eq!((seg.mss, seg.wscale, seg.sack), (Some(1460), Some(7), None));

        let dsack = SegmentOut {
            seq: 9,
            ack: 0x8000_0010,
            flags: Flags::ACK,
            window: 100,
            mss: None,
            wscale: None,
            sack_permitted: false,
            sack: Some((0xFFFF_FFF0, 0x0000_0010)), // wraps
            payload: PktBuf::from_vec(b"x".to_vec()),
        };
        let wire = build_segment(A, 80, B, 1234, &dsack);
        assert_eq!(wire.len(), 20 + 12 + 1);
        let seg = TcpSegment::parse(A, B, &PktBuf::from_vec(wire)).unwrap();
        assert!(!seg.sack_permitted);
        assert_eq!(seg.sack, Some((0xFFFF_FFF0, 0x0000_0010)));
        assert_eq!(seg.payload, b"x");
    }

    #[test]
    fn only_the_first_of_several_sack_blocks_is_kept() {
        let base = SegmentOut {
            seq: 1,
            ack: 2,
            flags: Flags::ACK,
            window: 100,
            mss: None,
            wscale: None,
            sack_permitted: false,
            sack: None,
            payload: PktBuf::empty(),
        };
        // Three blocks (kind 5, length 26), then a misfit SACK (length 6)
        // that is skipped like an unknown option.
        let mut opts = vec![5u8, 26];
        for b in 1..=6u32 {
            opts.extend_from_slice(&(b * 1000).to_be_bytes());
        }
        opts.extend_from_slice(&[5, 6, 0, 0, 0, 0]);
        let mut wire = build_segment(A, 80, B, 1234, &base);
        wire.splice(20..20, opts);
        wire[12] = ((wire.len() / 4) as u8) << 4;
        wire[16..18].copy_from_slice(&[0, 0]);
        let c = checksum::pseudo_checksum(A, B, protocol::TCP, &wire);
        wire[16..18].copy_from_slice(&c.to_be_bytes());
        let seg = TcpSegment::parse(A, B, &PktBuf::from_vec(wire)).unwrap();
        assert_eq!(seg.sack, Some((1000, 2000)));
        assert!(seg.payload.is_empty());
    }

    #[test]
    fn corrupted_segment_rejected() {
        let out = SegmentOut {
            seq: 1,
            ack: 2,
            flags: Flags::ACK,
            window: 100,
            mss: None,
            wscale: None,
            sack_permitted: false,
            sack: None,
            payload: PktBuf::from_vec(b"data".to_vec()),
        };
        let mut wire = build_segment(A, 80, B, 1234, &out);
        wire[22] ^= 0x40;
        assert!(TcpSegment::parse(A, B, &PktBuf::from_vec(wire)).is_none());
    }

    #[test]
    fn flag_bits_are_rfc_793s_and_round_trip() {
        let only = |byte| Flags::from_byte(byte);
        assert!(only(0x01).fin && only(0x02).syn && only(0x04).rst);
        assert!(only(0x08).psh && only(0x10).ack);
        for byte in 0..0x20 {
            assert_eq!(Flags::from_byte(byte).to_byte(), byte);
        }
        assert_eq!(
            Flags::from_byte(0xE0),
            Flags::default(),
            "URG/ECE/CWR are ignored"
        );
    }

    #[test]
    fn write_segment_owns_exactly_its_bytes() {
        let out = SegmentOut {
            seq: 7,
            ack: 9,
            flags: Flags::ACK,
            window: 512,
            mss: Some(1460),
            wscale: Some(3),
            sack_permitted: false,
            sack: None,
            payload: PktBuf::from_vec(b"in place".to_vec()),
        };
        // A buffer with stale bytes in it, longer than the segment.
        let mut buf = [0xAA; 64];
        let len = write_segment(&mut buf, A, 80, B, 1234, &out);
        assert_eq!(len, segment_len(&out));
        assert_eq!(buf[..len], build_segment(A, 80, B, 1234, &out));
        assert!(buf[len..].iter().all(|&b| b == 0xAA));
    }

    mirage_testkit::property! {
        /// Segment wire format round-trips for arbitrary field values.
        fn prop_wire_round_trip(seq in any::<u32>(), ack in any::<u32>(), win in any::<u16>(),
                                payload in collection::vec(any::<u8>(), 0..64)) {
            let out = SegmentOut {
                seq, ack,
                flags: Flags::ACK,
                window: win,
                mss: None,
                wscale: None,
                sack_permitted: win & 1 == 1,
                sack: (win & 2 == 2).then_some((ack, seq)),
                payload: PktBuf::from_vec(payload.clone()),
            };
            let wire = PktBuf::from_vec(build_segment(A, 1, B, 2, &out));
            let seg = TcpSegment::parse(A, B, &wire).unwrap();
            assert_eq!(seg.seq, seq);
            assert_eq!(seg.ack, ack);
            assert_eq!(seg.window, win);
            assert_eq!((seg.sack_permitted, seg.sack), (out.sack_permitted, out.sack));
            assert_eq!(seg.payload, &payload[..]);
        }
    }
}
