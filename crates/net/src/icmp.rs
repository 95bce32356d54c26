//! ICMP echo — the paper's flood-ping latency microbenchmark (§4.1.3)
//! "stress tests pure header parsing".

use crate::checksum;

/// An ICMP echo message (request or reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Echo<'a> {
    /// `true` for echo-request (type 8), `false` for echo-reply (type 0).
    pub is_request: bool,
    /// Identifier (per ping session).
    pub ident: u16,
    /// Sequence number.
    pub seq: u16,
    /// Payload.
    pub payload: &'a [u8],
}

/// Header length of an echo message.
pub const HEADER_LEN: usize = 8;

impl<'a> Echo<'a> {
    /// Parses an echo message out of an IPv4 payload; `None` for other
    /// ICMP types or checksum failures.
    pub fn parse(data: &'a [u8]) -> Option<Echo<'a>> {
        if data.len() < HEADER_LEN || !checksum::verify(data) {
            return None;
        }
        let is_request = match data[0] {
            8 => true,
            0 => false,
            _ => return None,
        };
        if data[1] != 0 {
            return None;
        }
        Some(Echo {
            is_request,
            ident: u16::from_be_bytes([data[4], data[5]]),
            seq: u16::from_be_bytes([data[6], data[7]]),
            payload: &data[HEADER_LEN..],
        })
    }

    /// Length on the wire.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Writes the message, checksum included, at the start of `buf` and
    /// returns its length — the only code that knows the echo layout.
    pub fn write(&self, buf: &mut [u8]) -> usize {
        let len = self.wire_len();
        let p = &mut buf[..len];
        p[0] = if self.is_request { 8 } else { 0 };
        p[1] = 0;
        p[2..4].copy_from_slice(&[0, 0]); // checksum, filled below
        p[4..6].copy_from_slice(&self.ident.to_be_bytes());
        p[6..8].copy_from_slice(&self.seq.to_be_bytes());
        p[HEADER_LEN..].copy_from_slice(self.payload);
        let c = checksum::checksum(p);
        p[2..4].copy_from_slice(&c.to_be_bytes());
        len
    }

    /// The reply to this request (same ident/seq/payload).
    pub fn reply(&self) -> Echo<'a> {
        Echo {
            is_request: false,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Echo<'_> {
        fn build(&self) -> Vec<u8> {
            let mut p = vec![0; self.wire_len()];
            self.write(&mut p);
            p
        }
    }

    #[test]
    fn round_trip_and_reply() {
        let req = Echo {
            is_request: true,
            ident: 0x1234,
            seq: 7,
            payload: b"abcdefgh",
        };
        let wire = req.build();
        let parsed = Echo::parse(&wire).unwrap();
        assert_eq!(parsed, req);
        let reply_wire = parsed.reply().build();
        let reply = Echo::parse(&reply_wire).unwrap();
        assert!(!reply.is_request);
        assert_eq!(reply.ident, 0x1234);
        assert_eq!(reply.seq, 7);
        assert_eq!(reply.payload, b"abcdefgh");
    }

    #[test]
    fn write_owns_exactly_its_bytes() {
        let echo = Echo {
            is_request: true,
            ident: 1,
            seq: 2,
            payload: b"ping",
        };
        // A buffer with stale bytes in it, longer than the message.
        let mut buf = [0xAA; 32];
        let len = echo.write(&mut buf);
        assert_eq!(buf[..len], echo.build());
        assert!(buf[len..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn corruption_rejected() {
        let mut wire = Echo {
            is_request: true,
            ident: 1,
            seq: 1,
            payload: b"x",
        }
        .build();
        wire[6] ^= 0xFF;
        assert_eq!(Echo::parse(&wire), None);
    }

    #[test]
    fn non_echo_types_ignored() {
        let mut wire = Echo {
            is_request: true,
            ident: 1,
            seq: 1,
            payload: &[],
        }
        .build();
        wire[0] = 3; // destination unreachable
        let c = checksum::checksum(&{
            let mut h = wire.clone();
            h[2] = 0;
            h[3] = 0;
            h
        });
        wire[2..4].copy_from_slice(&c.to_be_bytes());
        assert_eq!(Echo::parse(&wire), None);
    }
}
