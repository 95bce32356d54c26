//! Receive-side scaling: which queue a TCP flow belongs to.
//!
//! A multi-queue NIC has a ring pair per per-core ingress queue, and the
//! switch delivers each received frame into the pair [`queue_of`] names,
//! so every TCP flow lands on exactly one queue, and therefore one vCPU,
//! before the stack ever sees it. The stack's outbound connects pick their
//! ephemeral port with the same function, so the reply comes back to the
//! worker that sent the SYN. That is the one place the decision is made.
//!
//! The input tuple is taken from the *receiver's* perspective —
//! `(src_ip, src_port, dst_port)` of the incoming segment is the
//! `(peer_ip, peer_port, local_port)` of the connection it belongs to.

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

/// The queue, in `0..queues`, that the TCP flow arriving as
/// `(src_ip, src_port, dst_port)` belongs to: its Toeplitz hash modulo the
/// queue count, which must not be zero.
pub fn queue_of(src_ip: [u8; 4], src_port: u16, dst_port: u16, queues: usize) -> usize {
    toeplitz(src_ip, src_port, dst_port) as usize % queues
}

/// Classifies a raw Ethernet frame to an RX queue index in `0..queues`.
///
/// IPv4 TCP frames go to their flow's [`queue_of`]; everything else (ARP,
/// ICMP, UDP, short or malformed frames) rides queue 0, where the stack's
/// control-plane worker lives.
pub fn rx_queue(frame: &[u8], queues: usize) -> usize {
    if queues <= 1 {
        return 0;
    }
    classify(frame).map_or(0, |(ip, sport, dport)| queue_of(ip, sport, dport, queues))
}

/// The flow tuple `(src_ip, src_port, dst_port)` of an IPv4 TCP frame, if
/// it is one.
fn classify(frame: &[u8]) -> Option<([u8; 4], u16, u16)> {
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
    Some((src_ip, src_port, dst_port))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::rng::Rng;
    use mirage_testkit::test_seed;

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

    /// A seeded corpus of flow tuples.
    fn corpus(stream: &str, flows: usize) -> Vec<([u8; 4], u16, u16)> {
        let mut rng = Rng::for_stream(test_seed(), stream);
        (0..flows)
            .map(|_| {
                let ip = rng.next_u32().to_be_bytes();
                (ip, rng.next_u32() as u16, rng.next_u32() as u16)
            })
            .collect()
    }

    #[test]
    fn toeplitz_known_answers() {
        // Recorded from the two kernels this one replaced (they agreed):
        // the flow→queue mapping must never drift between builds.
        assert_eq!(toeplitz([10, 0, 0, 2], 40000, 80), 0xdba0_27c6);
        assert_eq!(toeplitz([192, 168, 1, 77], 51515, 443), 0xf7bc_ef7c);
        assert_eq!(toeplitz([203, 0, 113, 9], 1, 65535), 0xb9ef_deda);
    }

    #[test]
    fn tcp_frames_classify_by_flow_hash() {
        let f = tcp_frame([10, 0, 0, 7], 43211, 80);
        assert_eq!(classify(&f), Some(([10, 0, 0, 7], 43211, 80)));
        // The queue is the flow hash folded over the queue count.
        let h = toeplitz([10, 0, 0, 7], 43211, 80);
        assert_eq!(rx_queue(&f, 4), h as usize % 4);
        // Same flow, same queue — forever.
        assert_eq!(rx_queue(&f, 4), rx_queue(&f, 4));
    }

    #[test]
    fn every_frame_keeps_the_queue_of_the_64_way_fold() {
        // Older builds folded the hash into 64 shards and then the shard
        // over the queue count. At every width in use (1, 2, 4, 8 queues)
        // that names the same queue as the one fold, so no frame moved.
        for (ip, sport, dport) in corpus("rss-fold", 4096) {
            let frame = tcp_frame(ip, sport, dport);
            let shard = toeplitz(ip, sport, dport) & 63;
            for queues in [1usize, 2, 4, 8] {
                assert_eq!(rx_queue(&frame, queues), shard as usize % queues);
            }
        }
    }

    #[test]
    fn seeded_corpus_spreads_within_quarter_of_uniform() {
        // A seeded corpus of flows lands within ±25 % of uniform across
        // the queues at every width, power of two or not.
        const FLOWS: usize = 24_576;
        let flows = corpus("rss-balance", FLOWS);
        for queues in [2usize, 3, 4, 8] {
            let mut counts = vec![0usize; queues];
            for &(ip, sport, dport) in &flows {
                counts[queue_of(ip, sport, dport, queues)] += 1;
            }
            let uniform = FLOWS / queues;
            let (lo, hi) = (uniform * 3 / 4, uniform * 5 / 4);
            for (q, &n) in counts.iter().enumerate() {
                assert!(
                    (lo..=hi).contains(&n),
                    "queue {q} of {queues} got {n} flows; uniform is {uniform} (allowed {lo}..={hi})"
                );
            }
        }
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
