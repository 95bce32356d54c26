//! ARP — address resolution with a pending-queue cache (paper Table 1).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;

use mirage_hypervisor::{Dur, Time};

use crate::addr::Mac;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has.
    Request,
    /// Is-at.
    Reply,
}

/// A parsed ARP packet (IPv4-over-Ethernet flavour only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sha: Mac,
    /// Sender protocol address.
    pub spa: Ipv4Addr,
    /// Target hardware address.
    pub tha: Mac,
    /// Target protocol address.
    pub tpa: Ipv4Addr,
}

/// Packet length on the wire.
pub const ARP_LEN: usize = 28;

impl ArpPacket {
    /// Parses from an Ethernet payload.
    pub fn parse(data: &[u8]) -> Option<ArpPacket> {
        if data.len() < ARP_LEN {
            return None;
        }
        // htype=1 (Ethernet), ptype=0x0800, hlen=6, plen=4.
        if data[0..2] != [0, 1] || data[2..4] != [0x08, 0x00] || data[4] != 6 || data[5] != 4 {
            return None;
        }
        let op = match u16::from_be_bytes([data[6], data[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return None,
        };
        Some(ArpPacket {
            op,
            sha: Mac(data[8..14].try_into().ok()?),
            spa: Ipv4Addr::new(data[14], data[15], data[16], data[17]),
            tha: Mac(data[18..24].try_into().ok()?),
            tpa: Ipv4Addr::new(data[24], data[25], data[26], data[27]),
        })
    }

    /// Writes the packet at the start of `buf` and returns its length —
    /// the only code that knows the ARP layout.
    pub fn write(&self, buf: &mut [u8]) -> usize {
        let p = &mut buf[..ARP_LEN];
        // htype=1 (Ethernet), ptype=0x0800, hlen=6, plen=4.
        p[0..6].copy_from_slice(&[0, 1, 0x08, 0x00, 6, 4]);
        let op: u16 = match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        };
        p[6..8].copy_from_slice(&op.to_be_bytes());
        p[8..14].copy_from_slice(self.sha.as_bytes());
        p[14..18].copy_from_slice(&self.spa.octets());
        p[18..24].copy_from_slice(self.tha.as_bytes());
        p[24..28].copy_from_slice(&self.tpa.octets());
        ARP_LEN
    }
}

/// How long a learned entry stays valid.
pub const ENTRY_TTL: Dur = Dur::secs(300);
/// Retransmit interval for unanswered requests.
pub const REQUEST_RETRY: Dur = Dur::secs(1);
/// Attempts before giving up and dropping queued packets.
pub const MAX_RETRIES: u32 = 3;
/// Frames held per unresolved neighbour; one more drops the oldest. A
/// sender looping at a silent address would otherwise pin every frame for
/// `MAX_RETRIES × REQUEST_RETRY`. Sized like Linux's `unres_qlen_bytes`
/// (208 KiB): 64 frames of at most a page each, and twice the deepest
/// burst a gate queues behind one resolution (c1m's 32 first SYNs).
pub const MAX_QUEUED: usize = 64;

struct Pending {
    queued: VecDeque<Vec<u8>>, // assembled frames awaiting resolution
    retries: u32,
    next_retry: Time,
}

/// The ARP cache: resolved entries plus per-address pending queues.
#[derive(Default)]
pub struct ArpCache {
    entries: HashMap<Ipv4Addr, (Mac, Time)>, // mac, expiry
    /// In address order: `poll` walks it, and who-has frames leave in the
    /// order it returns.
    pending: BTreeMap<Ipv4Addr, Pending>,
}

impl ArpCache {
    /// An empty cache.
    pub fn new() -> ArpCache {
        ArpCache::default()
    }

    /// Holds an assembled `frame` until `ip` resolves. True if it is the
    /// first to wait, so the caller should broadcast a who-has for `ip`.
    pub fn queue(&mut self, ip: Ipv4Addr, frame: Vec<u8>, now: Time) -> bool {
        let first = !self.pending.contains_key(&ip);
        let p = self.pending.entry(ip).or_insert_with(|| Pending {
            queued: VecDeque::new(),
            retries: 0,
            next_retry: now + REQUEST_RETRY,
        });
        if p.queued.len() == MAX_QUEUED {
            p.queued.pop_front();
        }
        p.queued.push_back(frame);
        first
    }

    /// Learns a mapping (from any ARP packet — gratuitous included) and
    /// returns the frames that waited for it, oldest first.
    pub fn learn(&mut self, ip: Ipv4Addr, mac: Mac, now: Time) -> VecDeque<Vec<u8>> {
        self.entries.insert(ip, (mac, now + ENTRY_TTL));
        self.pending
            .remove(&ip)
            .map(|p| p.queued)
            .unwrap_or_default()
    }

    /// The MAC of `ip`, if learned and not expired.
    pub fn get(&self, ip: Ipv4Addr, now: Time) -> Option<Mac> {
        self.entries
            .get(&ip)
            .filter(|(_, expiry)| *expiry > now)
            .map(|(mac, _)| *mac)
    }

    /// Advances retry timers; returns IPs to re-request, in address
    /// order, and drops queues that exhausted their retries.
    pub fn poll(&mut self, now: Time) -> Vec<Ipv4Addr> {
        let mut resend = Vec::new();
        self.pending.retain(|ip, p| {
            if p.next_retry <= now {
                p.retries += 1;
                if p.retries >= MAX_RETRIES {
                    return false;
                }
                p.next_retry = now + REQUEST_RETRY;
                resend.push(*ip);
            }
            true
        });
        resend
    }

    /// The earliest pending retry deadline.
    pub fn next_deadline(&self) -> Option<Time> {
        self.pending.values().map(|p| p.next_retry).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ArpPacket {
        fn build(&self) -> Vec<u8> {
            let mut p = vec![0; ARP_LEN];
            self.write(&mut p);
            p
        }
    }

    const IP1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn packet_round_trip() {
        let pkt = ArpPacket {
            op: ArpOp::Request,
            sha: Mac::local(1),
            spa: IP1,
            tha: Mac::ZERO,
            tpa: IP2,
        };
        let wire = pkt.build();
        assert_eq!(wire.len(), ARP_LEN);
        assert_eq!(ArpPacket::parse(&wire), Some(pkt));
    }

    #[test]
    fn malformed_packets_rejected() {
        let mut wire = ArpPacket {
            op: ArpOp::Reply,
            sha: Mac::local(1),
            spa: IP1,
            tha: Mac::local(2),
            tpa: IP2,
        }
        .build();
        wire[4] = 8; // wrong hlen
        assert_eq!(ArpPacket::parse(&wire), None);
        assert_eq!(ArpPacket::parse(&[0u8; 10]), None);
    }

    #[test]
    fn cache_resolves_and_flushes_queue() {
        let mut cache = ArpCache::new();
        let now = Time::ZERO;
        assert_eq!(cache.get(IP1, now), None);
        assert!(
            cache.queue(IP1, b"pkt1".to_vec(), now),
            "first to wait: ask"
        );
        assert!(
            !cache.queue(IP1, b"pkt2".to_vec(), now),
            "second packet does not re-request"
        );
        let flushed = cache.learn(IP1, Mac::local(9), now);
        assert_eq!(flushed, vec![b"pkt1".to_vec(), b"pkt2".to_vec()]);
        assert_eq!(cache.get(IP1, now), Some(Mac::local(9)));
    }

    #[test]
    fn entries_expire() {
        let mut cache = ArpCache::new();
        cache.learn(IP1, Mac::local(9), Time::ZERO);
        let later = Time::ZERO + ENTRY_TTL + Dur::secs(1);
        assert_eq!(cache.get(IP1, later), None);
        assert!(cache.queue(IP1, b"p".to_vec(), later), "asks again");
    }

    #[test]
    fn retries_then_gives_up() {
        let mut cache = ArpCache::new();
        cache.queue(IP1, b"p".to_vec(), Time::ZERO);
        let t1 = Time::ZERO + REQUEST_RETRY + Dur::millis(1);
        assert_eq!(cache.poll(t1), vec![IP1], "first retry");
        let t2 = t1 + REQUEST_RETRY + Dur::millis(1);
        assert_eq!(cache.poll(t2), vec![IP1], "second retry");
        let t3 = t2 + REQUEST_RETRY + Dur::millis(1);
        assert!(cache.poll(t3).is_empty(), "gave up");
        assert_eq!(cache.next_deadline(), None);
    }

    /// The who-has frames go out in the order `poll` returns, so it must
    /// not depend on a per-process hash seed.
    #[test]
    fn overdue_neighbours_are_re_requested_in_address_order() {
        let mut cache = ArpCache::new();
        for host in [7u8, 3, 9, 1, 5, 8, 6, 2, 4] {
            cache.queue(Ipv4Addr::new(10, 0, 0, host), b"p".to_vec(), Time::ZERO);
        }
        let in_order: Vec<_> = (1..=9).map(|host| Ipv4Addr::new(10, 0, 0, host)).collect();
        assert_eq!(cache.poll(Time::ZERO + REQUEST_RETRY), in_order);
    }

    #[test]
    fn pending_queue_is_bounded_and_keeps_the_newest() {
        let frame = |i: u32| i.to_be_bytes().to_vec();
        let mut cache = ArpCache::new();
        for i in 0..1000 {
            cache.queue(IP1, frame(i), Time::ZERO);
        }
        let released = cache.learn(IP1, Mac::local(9), Time::ZERO);
        let newest: Vec<_> = (1000 - MAX_QUEUED as u32..1000).map(frame).collect();
        assert_eq!(released, newest, "the oldest were dropped, order kept");

        // An unanswered neighbour gives all of its queue up.
        for i in 0..1000 {
            cache.queue(IP2, frame(i), Time::ZERO);
        }
        let mut now = Time::ZERO;
        for _ in 0..MAX_RETRIES {
            now = now + REQUEST_RETRY + Dur::millis(1);
            cache.poll(now);
        }
        assert_eq!(cache.next_deadline(), None);
        assert!(cache.learn(IP2, Mac::local(9), now).is_empty());
    }
}
