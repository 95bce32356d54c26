//! Receive-side scaling: Toeplitz classification of raw Ethernet frames
//! into netfront RX queues.
//!
//! A multi-queue NIC has a ring pair per per-core ingress queue, and the
//! switch delivers each received frame into the pair its flow hash names,
//! so every TCP flow lands on exactly one queue, and therefore one vCPU,
//! before the stack ever sees it. The
//! connection-table shard hash in `mirage-net`
//! (`net::tcp::demux::flow_hash`) is this module's [`toeplitz`]: one
//! kernel, one key, so classifier and demux cannot disagree.
//!
//! The input tuple is taken from the *receiver's* perspective —
//! `(src_ip, src_port, dst_port)` of the incoming segment is the
//! `(peer_ip, peer_port, local_port)` the stack's demux hashes — so a
//! frame is steered to the very shard its TCB lives in.

/// Shard-space width of `mirage-net`'s connection demux: 64 shards, a
/// disjoint slice of which each vCPU owns.
pub const SHARD_BITS: u32 = 6;
/// Number of RSS shards.
pub const SHARDS: u32 = 1 << SHARD_BITS;

/// The fixed 16-byte Toeplitz key: the classic Microsoft RSS key
/// truncated to our 8-byte input width. Fixed, like real NICs configure it
/// once at init — determinism comes free.
const RSS_KEY: [u8; 16] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f,
    0xb0,
];

/// Toeplitz hash over `(src_ip, src_port, dst_port)` — 8 bytes of input.
/// Bit `i` of the input XORs a 32-bit window of the key into the hash,
/// exactly the scheme NIC receive-side scaling uses to spread flows
/// across queues.
#[inline]
pub fn toeplitz(src_ip: [u8; 4], src_port: u16, dst_port: u16) -> u32 {
    let mut input = [0u8; 8];
    input[0..4].copy_from_slice(&src_ip);
    input[4..6].copy_from_slice(&src_port.to_be_bytes());
    input[6..8].copy_from_slice(&dst_port.to_be_bytes());

    let mut hash = 0u32;
    let mut window = u32::from_be_bytes(RSS_KEY[0..4].try_into().expect("key length"));
    let mut next_key_bit = 32usize;
    for byte in input {
        for bit in (0..8).rev() {
            if byte >> bit & 1 == 1 {
                hash ^= window;
            }
            let incoming = RSS_KEY[next_key_bit / 8] >> (7 - next_key_bit % 8) & 1;
            window = window << 1 | u32::from(incoming);
            next_key_bit += 1;
        }
    }
    hash
}

/// Classifies a raw Ethernet frame to an RX queue index in `0..queues`.
///
/// IPv4 TCP frames hash their flow tuple into the 64-way shard space and
/// fold `shard % queues`; everything else (ARP, ICMP, UDP, short or
/// malformed frames) rides queue 0, where the stack's control-plane
/// worker lives.
pub fn rx_queue(frame: &[u8], queues: usize) -> usize {
    if queues <= 1 {
        return 0;
    }
    match classify(frame) {
        Some(hash) => (hash & (SHARDS - 1)) as usize % queues,
        None => 0,
    }
}

/// The flow hash of an IPv4 TCP frame, if it is one.
pub fn classify(frame: &[u8]) -> Option<u32> {
    // Ethernet header: dst(6) src(6) ethertype(2).
    if frame.len() < 14 + 20 {
        return None;
    }
    if frame[12] != 0x08 || frame[13] != 0x00 {
        return None; // not IPv4
    }
    let ip = &frame[14..];
    if ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = usize::from(ip[0] & 0x0f) * 4;
    if ihl < 20 || ip.len() < ihl + 4 {
        return None;
    }
    if ip[9] != 6 {
        return None; // not TCP
    }
    let src_ip: [u8; 4] = ip[12..16].try_into().expect("checked length");
    let tcp = &ip[ihl..];
    let src_port = u16::from_be_bytes(tcp[0..2].try_into().expect("checked length"));
    let dst_port = u16::from_be_bytes(tcp[2..4].try_into().expect("checked length"));
    Some(toeplitz(src_ip, src_port, dst_port))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal IPv4/TCP frame with the given flow tuple.
    fn tcp_frame(src_ip: [u8; 4], src_port: u16, dst_port: u16) -> Vec<u8> {
        let mut f = vec![0u8; 14 + 20 + 20];
        f[12] = 0x08; // IPv4 ethertype
        f[13] = 0x00;
        f[14] = 0x45; // v4, IHL 5
        f[14 + 9] = 6; // TCP
        f[14 + 12..14 + 16].copy_from_slice(&src_ip);
        f[34..36].copy_from_slice(&src_port.to_be_bytes());
        f[36..38].copy_from_slice(&dst_port.to_be_bytes());
        f
    }

    #[test]
    fn toeplitz_known_answers() {
        // Recorded from the two kernels this one replaced (they agreed):
        // the flow→shard mapping must never drift between builds — the
        // C1M shard-occupancy figures depend on it.
        assert_eq!(toeplitz([10, 0, 0, 2], 40000, 80), 0xdba0_27c6);
        assert_eq!(toeplitz([192, 168, 1, 77], 51515, 443), 0xf7bc_ef7c);
        assert_eq!(toeplitz([203, 0, 113, 9], 1, 65535), 0xb9ef_deda);
    }

    #[test]
    fn tcp_frames_classify_by_flow_hash() {
        let f = tcp_frame([10, 0, 0, 7], 43211, 80);
        let h = classify(&f).expect("TCP frame classifies");
        assert_eq!(h, toeplitz([10, 0, 0, 7], 43211, 80));
        // Queue index is the shard folded over the queue count.
        assert_eq!(rx_queue(&f, 4), (h & (SHARDS - 1)) as usize % 4);
        // Same flow, same queue — forever.
        assert_eq!(rx_queue(&f, 4), rx_queue(&f, 4));
    }

    #[test]
    fn non_tcp_frames_ride_queue_zero() {
        let mut arp = vec![0u8; 64];
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert_eq!(classify(&arp), None);
        assert_eq!(rx_queue(&arp, 8), 0);

        let mut udp = tcp_frame([10, 0, 0, 7], 53, 53);
        udp[14 + 9] = 17; // UDP
        assert_eq!(rx_queue(&udp, 8), 0);

        assert_eq!(rx_queue(&[0u8; 10], 8), 0, "runt frame");
    }

    #[test]
    fn single_queue_shortcuts() {
        let f = tcp_frame([10, 0, 0, 9], 50000, 5001);
        assert_eq!(rx_queue(&f, 1), 0);
        assert_eq!(rx_queue(&f, 0), 0);
    }
}
