//! The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header.
//!
//! The paper disables all hardware offload in its TCP evaluation (Figure 8)
//! "to provide the most stringent test of Mirage", so every packet here is
//! checksummed in software too.

use std::net::Ipv4Addr;

/// One's-complement sum over `data` (not yet inverted), added to `acc`.
///
/// Sums native-endian `u64` words into two accumulators, one per 32-bit
/// half so no add carries out, and byte-swaps the folded result once.
/// RFC 1071 §2 allows both: wider words leave the sum unchanged (`2^16 ≡
/// 1 (mod 0xFFFF)`; deferred carries fold back in), and so does byte
/// order, up to one swap (§2(B)). A short tail is zero-padded; it starts
/// at an even offset, so an odd last byte is padded as the RFC pads it.
fn sum(acc: u32, data: &[u8]) -> u32 {
    let (mut lo, mut hi) = (0u64, 0u64);
    let mut add = |word: u64| {
        lo += word & 0xFFFF_FFFF;
        hi += word >> 32;
    };
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        add(u64::from_ne_bytes(w.try_into().expect("eight bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut pad = [0u8; 8];
        pad[..tail.len()].copy_from_slice(tail);
        add(u64::from_ne_bytes(pad));
    }
    let native = fold16(lo + hi) as u16;
    fold16(u64::from(acc) + u64::from(u16::from_be(native)))
}

/// Folds end-around carries down to 16 bits.
fn fold16(mut wide: u64) -> u32 {
    while wide >> 16 != 0 {
        wide = (wide & 0xFFFF) + (wide >> 16);
    }
    wide as u32
}

fn fold(acc: u32) -> u16 {
    !(fold16(acc.into()) as u16)
}

/// Checksum of a standalone header (IPv4, ICMP).
pub fn checksum(data: &[u8]) -> u16 {
    fold(sum(0, data))
}

/// Checksum of a TCP or UDP segment including the IPv4 pseudo-header.
pub fn pseudo_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, segment: &[u8]) -> u16 {
    let mut acc = 0u32;
    acc = sum(acc, &src.octets());
    acc = sum(acc, &dst.octets());
    acc += protocol as u32;
    acc += segment.len() as u32;
    acc = sum(acc, segment);
    fold(acc)
}

/// Verifies a buffer whose checksum field is already in place (the folded
/// sum over the whole buffer must be zero).
pub fn verify(data: &[u8]) -> bool {
    fold(sum(0, data)) == 0
}

/// Verifies a TCP/UDP segment with its pseudo-header.
pub fn verify_pseudo(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, segment: &[u8]) -> bool {
    pseudo_checksum(src, dst, protocol, segment) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    #[test]
    fn rfc1071_worked_example() {
        // The classic example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_padded_with_zero() {
        assert_eq!(checksum(&[0xFF]), checksum(&[0xFF, 0x00]));
    }

    #[test]
    fn verify_accepts_checksummed_buffer() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0];
        let c = checksum(&data);
        data[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 1;
        assert!(!verify(&data), "corruption detected");
    }

    /// The textbook byte-at-a-time reference: accumulate each 16-bit word
    /// with an immediate end-around carry. The fast path must match this
    /// exactly on every input.
    fn naive_checksum(data: &[u8]) -> u16 {
        let mut acc: u32 = 0;
        let mut i = 0;
        while i < data.len() {
            let hi = data[i] as u32;
            let lo = if i + 1 < data.len() { data[i + 1] as u32 } else { 0 };
            acc += (hi << 8) | lo;
            if acc > 0xFFFF {
                acc = (acc & 0xFFFF) + 1;
            }
            i += 2;
        }
        !(acc as u16)
    }

    /// The naive pseudo-header sum: the RFC 768/793 twelve bytes laid
    /// out in front of the segment and summed as one buffer.
    fn naive_pseudo(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, segment: &[u8]) -> u16 {
        let len = (segment.len() as u16).to_be_bytes();
        let header = [&src.octets()[..], &dst.octets(), &[0, protocol], &len];
        naive_checksum(&[&header.concat()[..], segment].concat())
    }

    /// Every tail shape (0–7 bytes past the last whole word) at every
    /// alignment of the slice's start.
    #[test]
    fn every_short_length_at_every_offset_matches_naive() {
        let data: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(0x9E37) >> 3) as u8)
            .collect();
        for start in 0..8 {
            for end in start..data.len() {
                let s = &data[start..end];
                assert_eq!(checksum(s), naive_checksum(s), "[{start}..{end}]");
            }
        }
    }

    mirage_testkit::property! {
        /// The folded wide-word sum is byte-for-byte equivalent to the
        /// naive immediate-carry reference at every length up to a page
        /// and every start offset within a word (unaligned subslices).
        fn prop_fast_sum_matches_naive(data in collection::vec(any::<u8>(), 0..4097 + 8)) {
            for start in 0..8.min(data.len() + 1) {
                let s = &data[start..data.len().min(start + 4096)];
                assert_eq!(checksum(s), naive_checksum(s), "offset {start}, {} bytes", s.len());
            }
            // Also check every shorter prefix near the tail, so each
            // remainder length is hit even when the generator favours
            // particular sizes.
            for cut in data.len().saturating_sub(9)..=data.len() {
                assert_eq!(checksum(&data[..cut]), naive_checksum(&data[..cut]));
            }
        }

        /// The pseudo-header checksum equals the naive sum over the
        /// pseudo-header laid out in front of the segment, for any
        /// addresses and protocol.
        fn prop_pseudo_matches_naive(
            src in any::<u32>(),
            dst in any::<u32>(),
            protocol in any::<u8>(),
            segment in collection::vec(any::<u8>(), 0..1500),
        ) {
            let (src, dst) = (Ipv4Addr::from(src), Ipv4Addr::from(dst));
            assert_eq!(
                pseudo_checksum(src, dst, protocol, &segment),
                naive_pseudo(src, dst, protocol, &segment)
            );
        }

        /// Inserting the computed checksum always makes verification pass,
        /// and any single-bit flip breaks it.
        fn prop_checksum_detects_bit_flips(
            mut data in collection::vec(any::<u8>(), 12..256),
            flip in any::<usize>(),
        ) {
            // Reserve bytes 10..12 as the checksum field.
            data[10] = 0;
            data[11] = 0;
            let c = checksum(&data);
            data[10..12].copy_from_slice(&c.to_be_bytes());
            assert!(verify(&data));
            let bit = flip % (data.len() * 8);
            data[bit / 8] ^= 1 << (bit % 8);
            assert!(!verify(&data));
        }

        /// The pseudo-header checksum round-trips through verify_pseudo.
        fn prop_pseudo_round_trip(payload in collection::vec(any::<u8>(), 8..128)) {
            let src = std::net::Ipv4Addr::new(10, 0, 0, 1);
            let dst = std::net::Ipv4Addr::new(10, 0, 0, 2);
            let mut seg = payload.clone();
            // Bytes 6..8 stand in for the checksum field (UDP layout).
            seg[6] = 0;
            seg[7] = 0;
            let c = pseudo_checksum(src, dst, 17, &seg);
            seg[6..8].copy_from_slice(&c.to_be_bytes());
            assert!(verify_pseudo(src, dst, 17, &seg));
            // One's-complement addition commutes, so swapping src/dst does
            // not change the sum — but changing the protocol number must.
            assert!(verify_pseudo(dst, src, 17, &seg));
            assert!(!verify_pseudo(src, dst, 6, &seg));
        }
    }
}
