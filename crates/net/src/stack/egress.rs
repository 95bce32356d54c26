//! The one way out of the stack (paper §3.4.1, DESIGN.md §3.1): every
//! frame is assembled once, in place — Ethernet, IPv4 and transport
//! headers and the payload written into a single buffer that the ring then
//! carries by reference.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;

use mirage_testkit::sync::Mutex;

use mirage_cstruct::{PagePool, PktBuf, PAGE_SIZE};
use mirage_devices::netfront::MAX_FRAME;
use mirage_hypervisor::Time;
use mirage_runtime::channel::Sender;
use mirage_runtime::Runtime;

use super::{tcp_trace, trace_segment, AddrCell, Shared, StackConfig};
use crate::addr::{in_subnet, Mac};
use crate::arp::{ArpCache, ArpOp, ArpPacket, ARP_LEN};
use crate::dhcp::Lease;
use crate::ethernet::{self, EtherType};
use crate::icmp::Echo;
use crate::ipv4::{self, protocol};
use crate::tcp::{self, SegmentOut};
use crate::udp;

// A frame the device carries always fits the pool page it is built in.
const _: () = assert!(MAX_FRAME <= PAGE_SIZE);

/// Where a frame is headed on the link.
enum Hop {
    To(Mac),
    /// The next hop's MAC is not known yet: the frame waits in the ARP
    /// cache for it.
    Unresolved(Ipv4Addr),
}

pub(super) struct Egress {
    rt: Runtime,
    tx: Sender<PktBuf>,
    /// Frames assembled since the last [`Egress::flush`].
    out: VecDeque<PktBuf>,
    /// TX pages: headers and payload are written once into one of these
    /// and handed to the ring as one view.
    pool: PagePool,
    mac: Mac,
    /// The interface address, shared with the socket handle.
    ip: Arc<AddrCell>,
    ident: u16,
    netmask: Ipv4Addr,
    gateway: Option<Ipv4Addr>,
    arp: Arc<Mutex<ArpCache>>,
}

impl Egress {
    pub(super) fn new(
        rt: Runtime,
        mac: Mac,
        tx: Sender<PktBuf>,
        cfg: &StackConfig,
        shared: &Shared,
    ) -> Egress {
        Egress {
            rt,
            tx,
            out: VecDeque::new(),
            pool: PagePool::new(256),
            mac,
            ip: Arc::clone(&shared.ip),
            ident: 1,
            netmask: cfg.netmask,
            gateway: cfg.gateway,
            arp: Arc::clone(&shared.arp),
        }
    }

    pub(super) fn mac(&self) -> Mac {
        self.mac
    }

    /// The interface address; unspecified until one is configured.
    pub(super) fn ip(&self) -> Ipv4Addr {
        self.ip.get().unwrap_or(Ipv4Addr::UNSPECIFIED)
    }

    /// Takes the interface's address and route from a DHCP lease.
    pub(super) fn adopt(&mut self, lease: &Lease) {
        self.ip.set(lease.ip);
        self.netmask = lease.netmask;
        self.gateway = lease.gateway;
    }

    pub(super) fn tcp(&mut self, local_port: u16, peer: (Ipv4Addr, u16), seg: &SegmentOut) {
        if tcp_trace() {
            let route = format_args!("{:?} TX :{local_port}->{}:{}", self.ip(), peer.0, peer.1);
            trace_segment(
                self.rt.now(),
                route,
                (seg.seq, seg.ack),
                seg.payload.len(),
                seg.window,
                seg.flags,
            );
        }
        self.ipv4(peer.0, protocol::TCP, tcp::segment_len(seg), |buf, src| {
            tcp::write_segment(buf, src, local_port, peer.0, peer.1, seg);
        });
    }

    pub(super) fn udp(&mut self, src_port: u16, dst: Ipv4Addr, dst_port: u16, payload: &[u8]) {
        let len = udp::HEADER_LEN + payload.len();
        self.ipv4(dst, protocol::UDP, len, |buf, src| {
            udp::write(buf, src, src_port, dst, dst_port, payload);
        });
    }

    pub(super) fn echo(&mut self, dst: Ipv4Addr, echo: &Echo<'_>) {
        self.ipv4(dst, protocol::ICMP, echo.wire_len(), |buf, _| {
            echo.write(buf);
        });
    }

    /// Sends an ARP packet from this interface: a who-has for `tpa` to
    /// everyone, or an is-at to `tha`.
    pub(super) fn arp(&mut self, op: ArpOp, tha: Mac, tpa: Ipv4Addr) {
        let pkt = ArpPacket {
            op,
            sha: self.mac,
            spa: self.ip(),
            tha,
            tpa,
        };
        let dst = match op {
            ArpOp::Request => Mac::BROADCAST,
            ArpOp::Reply => tha,
        };
        self.frame(Hop::To(dst), EtherType::Arp, ARP_LEN, |buf| {
            pkt.write(buf);
        });
    }

    /// Sends `len` bytes of transport (header and payload, written by
    /// `transport` given the room and the source address) to `dst` as one
    /// IPv4 packet. A packet no frame can hold is refused before a byte is
    /// written — nothing below would carry it.
    fn ipv4(
        &mut self,
        dst: Ipv4Addr,
        proto: u8,
        len: usize,
        transport: impl FnOnce(&mut [u8], Ipv4Addr),
    ) {
        let packet_len = ipv4::HEADER_LEN + len;
        if ethernet::HEADER_LEN + packet_len > MAX_FRAME {
            return;
        }
        let src = self.ip();
        let ident = self.ident;
        self.ident = ident.wrapping_add(1);
        let hop = self.route(dst);
        self.frame(hop, EtherType::Ipv4, packet_len, |buf| {
            ipv4::write_header(buf, src, dst, proto, ident, len);
            transport(&mut buf[ipv4::HEADER_LEN..], src);
        });
    }

    /// The link-layer destination for `dst`: broadcast, or the MAC of the
    /// next hop (on-link, or the gateway) if ARP has it.
    fn route(&self, dst: Ipv4Addr) -> Hop {
        if dst.is_broadcast() {
            return Hop::To(Mac::BROADCAST);
        }
        let next_hop = match self.gateway {
            Some(gw) if !in_subnet(dst, self.ip(), self.netmask) => gw,
            _ => dst,
        };
        match self.arp.lock().get(next_hop, self.rt.now()) {
            Some(mac) => Hop::To(mac),
            None => Hop::Unresolved(next_hop),
        }
    }

    /// Assembles one frame — the Ethernet header here, the `packet_len`
    /// bytes behind it by `packet` — and sends it. The buffer is a pool
    /// page, or a heap buffer of exactly the frame's size when the pool is
    /// empty or the frame must first wait for ARP (it may wait seconds; a
    /// page is for the ring): same bytes, same charge either way.
    fn frame(
        &mut self,
        hop: Hop,
        ethertype: EtherType,
        packet_len: usize,
        packet: impl FnOnce(&mut [u8]),
    ) {
        let len = ethernet::HEADER_LEN + packet_len;
        let src = self.mac;
        let write = |buf: &mut [u8], dst: Mac| {
            ethernet::write_header(buf, dst, src, ethertype);
            packet(&mut buf[ethernet::HEADER_LEN..]);
        };
        let dst = match hop {
            Hop::To(dst) => dst,
            Hop::Unresolved(next_hop) => {
                let mut heap = vec![0; len];
                write(&mut heap, Mac::ZERO);
                let first = self.arp.lock().queue(next_hop, heap, self.rt.now());
                if first {
                    self.arp(ArpOp::Request, Mac::ZERO, next_hop);
                }
                return;
            }
        };
        let frame = match self.pool.alloc() {
            Ok(mut page) => {
                write(page.prefix_mut(len), dst);
                page.freeze()
            }
            Err(_) => {
                let mut heap = vec![0; len];
                write(&mut heap, dst);
                PktBuf::from_vec(heap)
            }
        };
        self.transmit(frame);
    }

    /// Queues an assembled frame for the device, charging the one pass
    /// over its bytes.
    fn transmit(&mut self, frame: PktBuf) {
        self.rt.charge_with(|costs| costs.copy(frame.len()));
        self.out.push_back(frame);
    }

    /// Hands every queued frame to the device in one go; a device gone
    /// drops them.
    pub(super) fn flush(&mut self) {
        let _ = self.tx.send_all(&mut self.out);
        self.out.clear();
    }

    /// Learns a neighbour and sends the frames that waited for it, each
    /// with the destination it lacked now written in.
    pub(super) fn learn(&mut self, ip: Ipv4Addr, mac: Mac) {
        let waiting = self.arp.lock().learn(ip, mac, self.rt.now());
        for mut frame in waiting {
            ethernet::write_header(&mut frame, mac, self.mac, EtherType::Ipv4);
            self.transmit(PktBuf::from_vec(frame));
        }
    }

    /// Repeats the who-has for every neighbour whose answer is overdue.
    pub(super) fn retry_arp(&mut self, now: Time) {
        let overdue = self.arp.lock().poll(now);
        for ip in overdue {
            self.arp(ArpOp::Request, Mac::ZERO, ip);
        }
    }

    pub(super) fn arp_deadline(&self) -> Option<Time> {
        self.arp.lock().next_deadline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dhcp;
    use crate::ethernet::Frame;
    use crate::ipv4::Ipv4Packet;
    use crate::tcp::{Flags, TcpSegment};
    use crate::udp::UdpDatagram;
    use mirage_hypervisor::{Dur, Hypervisor};
    use mirage_runtime::channel::{self, Receiver};
    use mirage_runtime::UnikernelGuest;
    use mirage_testkit::prop::{any, collection};

    const GUEST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const PEER_MAC: Mac = Mac([0x02, 0, 0, 0, 0, 0x22]);

    /// An egress of `mac` at `ip` on `rt`, and the device end of its TX queue.
    fn egress_on(rt: Runtime, mac: Mac, ip: Option<Ipv4Addr>) -> (Egress, Receiver<PktBuf>) {
        let (tx, rx) = channel::channel();
        let cfg = StackConfig::static_ip(GUEST_IP);
        (Egress::new(rt, mac, tx, &cfg, &Shared::new(ip)), rx)
    }

    /// The guest at [`GUEST_IP`] with [`PEER_IP`] already resolved.
    fn resolved_egress() -> (Egress, Receiver<PktBuf>) {
        let (mut egress, rx) = egress_on(Runtime::new(), Mac::local(1), Some(GUEST_IP));
        egress.learn(PEER_IP, PEER_MAC);
        (egress, rx)
    }

    /// The next frame `egress` handed to the device.
    fn sent(egress: &mut Egress, rx: &mut Receiver<PktBuf>) -> PktBuf {
        egress.flush();
        rx.try_recv().expect("a frame was sent")
    }

    fn unhex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) & 0xFF) as u8).collect()
    }

    fn segment(seq: u32, ack: u32, flags: Flags, window: u16) -> SegmentOut {
        SegmentOut {
            seq,
            ack,
            flags,
            window,
            mss: None,
            wscale: None,
            sack_permitted: false,
            sack: None,
            payload: PktBuf::empty(),
        }
    }

    const NO_FLAGS: Flags = Flags {
        syn: false,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    const SYN_FLAG: Flags = Flags {
        syn: true,
        ..NO_FLAGS
    };
    const RST_ACK: Flags = Flags {
        rst: true,
        ..Flags::ACK
    };
    const PSH_ACK: Flags = Flags {
        psh: true,
        ..Flags::ACK
    };

    // Frames a stack at the parent commit (dcc2d0f) put on the wire, as a
    // tap at 10.0.0.2 saw them: the guest at 10.0.0.1 sent a datagram,
    // pinged, connected to port 80, acknowledged the SYN+ACK and wrote one
    // MSS of `pattern`; it reset a stray ACK and a SYN to closed ports,
    // answered a who-has and an echo request. DATA is its headers only
    // (the payload is `pattern(1460)`). DHCP_DISCOVER is the first frame
    // of a second guest, local MAC 9, configured by DHCP.
    const DHCP_DISCOVER: &str = "ffffffffffff02000000000908004500011000014000401139dd00000000ffff \
         ffff0044004300fc66f5010106004d4952410000000000000000000000000000 \
         0000000000000200000000090000000000000000000000000000000000000000 \
         0000000000000000000000000000000000000000000000000000000000000000 \
         0000000000000000000000000000000000000000000000000000000000000000 \
         0000000000000000000000000000000000000000000000000000000000000000 \
         0000000000000000000000000000000000000000000000000000000000000000 \
         0000000000000000000000000000000000000000000000000000000000000000 \
         0000000000000000000000000000000000000000000063825363350101ff";
    const ARP_REQUEST: &str = "ffffffffffff020000000001080600010800060400010200000000010a000001 \
         0000000000000a000002";
    const UDP: &str = "02000000002202000000000108004500002b00014000401126bf0a0000010a00 \
         00021b5823280017b159676f6c64656e20646174616772616d";
    const ECHO_REQUEST: &str = "02000000002202000000000108004500002a00024000400126cf0a0000010a00 \
         00020800e4184d5200016d69726167652d72732070696e67";
    const SYN: &str = "02000000002202000000000108004500003000034000400626c30a0000010a00 \
         0002c000005000012110000000007002ffff8dba0000020405b403030201";
    const ACK: &str = "02000000002202000000000108004500002800044000400626ca0a0000010a00 \
         0002c000005000012111000013895010ffffa6e60000";
    const DATA: &str = "0200000000220200000000010800450005dc00054000400621150a0000010a00 \
         0002c000005000012111000013895018ffffc9e90000";
    const RST_STRAY: &str = "02000000002202000000000108004500002800064000400626c80a0000010a00 \
         000200510fa0000008ae00000458501400007ed70000";
    const RST_CLOSED: &str = "02000000002202000000000108004500002800074000400626c70a0000010a00 \
         000200520fa10000000000000d06501400007ed50000";
    const ARP_REPLY: &str = "020000000022020000000001080600010800060400020200000000010a000001 \
         0200000000220a000002";
    const ECHO_REPLY: &str = "02000000002202000000000108004500002700084000400126cc0a0000010a00 \
         00020000c1b212340009676f6c64656e206563686f";

    /// (a) Every kind of frame the stack emits is byte-identical to what
    /// the two TX paths this assembler replaced emitted.
    #[test]
    fn golden_frames_match_the_parent_commit() {
        let (mut egress, mut rx) = egress_on(Runtime::new(), Mac::local(1), Some(GUEST_IP));
        egress.arp(ArpOp::Request, Mac::ZERO, PEER_IP);
        assert_eq!(sent(&mut egress, &mut rx), unhex(ARP_REQUEST));
        egress.learn(PEER_IP, PEER_MAC);

        egress.udp(7000, PEER_IP, 9000, b"golden datagram");
        assert_eq!(sent(&mut egress, &mut rx), unhex(UDP));
        let ping = Echo {
            is_request: true,
            ident: 0x4D52,
            seq: 1,
            payload: b"mirage-rs ping",
        };
        egress.echo(PEER_IP, &ping);
        assert_eq!(sent(&mut egress, &mut rx), unhex(ECHO_REQUEST));

        let client = (PEER_IP, 80);
        let syn = SegmentOut {
            mss: Some(1460),
            wscale: Some(2),
            sack_permitted: false,
            sack: None,
            ..segment(74_000, 0, SYN_FLAG, 0xFFFF)
        };
        egress.tcp(49152, client, &syn);
        assert_eq!(sent(&mut egress, &mut rx), unhex(SYN));
        egress.tcp(49152, client, &segment(74_001, 5001, Flags::ACK, 0xFFFF));
        assert_eq!(sent(&mut egress, &mut rx), unhex(ACK));
        let data = SegmentOut {
            payload: PktBuf::from_vec(pattern(1460)),
            ..segment(74_001, 5001, PSH_ACK, 0xFFFF)
        };
        egress.tcp(49152, client, &data);
        assert_eq!(
            sent(&mut egress, &mut rx),
            [unhex(DATA), pattern(1460)].concat()
        );

        egress.tcp(81, (PEER_IP, 4000), &segment(2222, 1112, RST_ACK, 0));
        assert_eq!(sent(&mut egress, &mut rx), unhex(RST_STRAY));
        egress.tcp(82, (PEER_IP, 4001), &segment(0, 3334, RST_ACK, 0));
        assert_eq!(sent(&mut egress, &mut rx), unhex(RST_CLOSED));

        egress.arp(ArpOp::Reply, PEER_MAC, PEER_IP);
        assert_eq!(sent(&mut egress, &mut rx), unhex(ARP_REPLY));
        let pong = Echo {
            is_request: false,
            ident: 0x1234,
            seq: 9,
            payload: b"golden echo",
        };
        egress.echo(PEER_IP, &pong);
        assert_eq!(sent(&mut egress, &mut rx), unhex(ECHO_REPLY));
        assert!(rx.try_recv().is_none(), "one frame per send");

        let (mut unleased, mut rx) = egress_on(Runtime::new(), Mac::local(9), None);
        let (_, discover) = dhcp::Client::start(Mac::local(9), 0x4D49_5241, Time::ZERO);
        unleased.udp(68, Ipv4Addr::BROADCAST, 67, &discover);
        assert_eq!(sent(&mut unleased, &mut rx), unhex(DHCP_DISCOVER));
    }

    mirage_testkit::property! {
        /// (b) An assembled TCP frame parses back layer by layer, every
        /// checksum verifying and every field as given, and its transport
        /// bytes are what the `Vec` builder returns.
        fn prop_tcp_frame_round_trips(
            (seq, ack, window) in (any::<u32>(), any::<u32>(), any::<u16>()),
            (bits, mss, wscale) in (any::<u8>(), any::<u16>(), any::<u8>()),
            (local_port, peer_port) in (any::<u16>(), any::<u16>()),
            payload in collection::vec(any::<u8>(), 0..1461),
        ) {
            let bit = |n: u8| bits >> n & 1 == 1;
            let seg = SegmentOut {
                seq,
                ack,
                flags: Flags { syn: bit(0), ack: bit(1), fin: bit(2), rst: bit(3), psh: bit(4) },
                window,
                mss: bit(5).then_some(mss),
                wscale: bit(6).then_some(wscale),
                sack_permitted: bit(7),
                sack: (window & 1 == 1).then_some((ack, seq)),
                payload: PktBuf::from_vec(payload),
            };
            let (mut egress, mut rx) = resolved_egress();
            egress.tcp(local_port, (PEER_IP, peer_port), &seg);
            let frame = sent(&mut egress, &mut rx);

            let eth = Frame::parse(&frame).unwrap();
            assert_eq!((eth.dst, eth.src, eth.ethertype), (PEER_MAC, Mac::local(1), EtherType::Ipv4));
            let ip = Ipv4Packet::parse(eth.payload).unwrap();
            assert_eq!((ip.src, ip.dst, ip.protocol), (GUEST_IP, PEER_IP, protocol::TCP));
            assert_eq!(ip.payload, tcp::build_segment(GUEST_IP, local_port, PEER_IP, peer_port, &seg));
            let transport = frame.slice(ethernet::HEADER_LEN..).slice(ip.payload_range());
            let parsed = TcpSegment::parse(ip.src, ip.dst, &transport).unwrap();
            assert_eq!((parsed.src_port, parsed.dst_port), (local_port, peer_port));
            assert_eq!((parsed.seq, parsed.ack, parsed.window), (seq, ack, window));
            assert_eq!((parsed.flags, parsed.mss, parsed.wscale), (seg.flags, seg.mss, seg.wscale));
            assert_eq!((parsed.sack_permitted, parsed.sack), (seg.sack_permitted, seg.sack));
            assert_eq!(parsed.payload, seg.payload);
        }

        /// (b) The same for a UDP datagram.
        fn prop_udp_frame_round_trips(
            (src_port, dst_port) in (any::<u16>(), any::<u16>()),
            payload in collection::vec(any::<u8>(), 0..1473),
        ) {
            let (mut egress, mut rx) = resolved_egress();
            egress.udp(src_port, PEER_IP, dst_port, &payload);
            let frame = sent(&mut egress, &mut rx);

            let eth = Frame::parse(&frame).unwrap();
            let ip = Ipv4Packet::parse(eth.payload).unwrap();
            assert_eq!((ip.src, ip.dst, ip.protocol), (GUEST_IP, PEER_IP, protocol::UDP));
            let mut want = vec![0; udp::HEADER_LEN + payload.len()];
            udp::write(&mut want, GUEST_IP, src_port, PEER_IP, dst_port, &payload);
            assert_eq!(ip.payload, want);
            let dgram = UdpDatagram::parse(ip.src, ip.dst, ip.payload).unwrap();
            assert_eq!((dgram.src_port, dgram.dst_port), (src_port, dst_port));
            assert_eq!(dgram.payload, payload);
        }
    }

    /// (c) With the pool's only page pinned by a frame still in flight, the
    /// next frame is built on the heap: the same bytes for the same charge.
    #[test]
    fn an_empty_pool_changes_neither_the_bytes_nor_the_charge() {
        let mut hv = Hypervisor::new();
        let guest = UnikernelGuest::new(|_env, rt| {
            let rt = rt.clone();
            rt.clone().spawn(async move {
                let (mut egress, mut rx) = egress_on(rt.clone(), Mac::local(1), Some(GUEST_IP));
                egress.learn(PEER_IP, PEER_MAC);
                egress.pool = PagePool::new(1);
                let send = |egress: &mut Egress| {
                    egress.ident = 7;
                    egress.udp(7000, PEER_IP, 9000, b"the same either way");
                };

                let t0 = rt.now();
                send(&mut egress);
                rt.yield_now().await;
                let t1 = rt.now();
                let in_page = sent(&mut egress, &mut rx);
                assert_eq!(egress.pool.free_pages(), 0, "the live view pins the page");

                send(&mut egress);
                rt.yield_now().await;
                let t2 = rt.now();
                let on_heap = sent(&mut egress, &mut rx);
                assert_eq!(egress.pool.stats().total_allocs, 1, "no second page");

                assert_eq!(on_heap, in_page);
                assert!(t1 > t0, "assembly is charged");
                assert_eq!(t2.saturating_since(t1), t1.saturating_since(t0));
                0
            })
        });
        let dom = hv.create_domain("guest", 64, Box::new(guest));
        hv.run_until(Time::ZERO + Dur::secs(1));
        assert_eq!(hv.exit_code(dom), Some(0));
    }

    /// (d) Frames to a neighbour ARP has not resolved wait assembled: one
    /// who-has goes out, and on `learn` each leaves once, in order, with
    /// the MAC patched in and the `ident` it was given when queued.
    #[test]
    fn frames_wait_for_arp_assembled_and_leave_once() {
        let (mut egress, mut rx) = egress_on(Runtime::new(), Mac::local(1), Some(GUEST_IP));
        let syn = SegmentOut {
            mss: Some(1460),
            ..segment(74_000, 0, SYN_FLAG, 0xFFFF)
        };
        egress.tcp(49152, (PEER_IP, 80), &syn);
        egress.udp(7000, PEER_IP, 9000, b"second in line");
        let who_has = sent(&mut egress, &mut rx);
        let eth = Frame::parse(&who_has).unwrap();
        assert_eq!((eth.dst, eth.ethertype), (Mac::BROADCAST, EtherType::Arp));
        assert_eq!(ArpPacket::parse(eth.payload).unwrap().tpa, PEER_IP);
        assert!(
            rx.try_recv().is_none(),
            "nothing else leaves before the answer"
        );
        assert_eq!(
            egress.pool.stats().total_allocs,
            1,
            "waiting frames hold no page"
        );

        egress.learn(PEER_IP, PEER_MAC);
        let ident = |frame: &PktBuf| u16::from_be_bytes([frame[18], frame[19]]);
        let first = sent(&mut egress, &mut rx);
        let eth = Frame::parse(&first).unwrap();
        assert_eq!((eth.dst, eth.src), (PEER_MAC, Mac::local(1)));
        let ip = Ipv4Packet::parse(eth.payload).unwrap();
        let transport = first
            .slice(ethernet::HEADER_LEN..)
            .slice(ip.payload_range());
        let parsed = TcpSegment::parse(ip.src, ip.dst, &transport).unwrap();
        assert_eq!(
            (parsed.seq, parsed.flags, parsed.mss),
            (74_000, SYN_FLAG, Some(1460))
        );
        assert_eq!(ident(&first), 1);
        let second = sent(&mut egress, &mut rx);
        assert_eq!(Frame::parse(&second).unwrap().dst, PEER_MAC);
        assert_eq!(ident(&second), 2);
        assert!(
            rx.try_recv().is_none(),
            "each queued frame leaves exactly once"
        );

        egress.udp(7000, PEER_IP, 9000, b"straight out");
        assert_eq!(ident(&sent(&mut egress, &mut rx)), 3);
    }

    /// Neighbours whose answers fall due together are asked again in address
    /// order, whatever order their frames were queued in.
    #[test]
    fn retry_arp_repeats_who_has_in_address_order() {
        let (mut egress, mut rx) = egress_on(Runtime::new(), Mac::local(1), Some(GUEST_IP));
        let who_has = |egress: &mut Egress, rx: &mut Receiver<PktBuf>| {
            egress.flush();
            let mut asked = Vec::new();
            while let Some(frame) = rx.try_recv() {
                let eth = Frame::parse(&frame).unwrap();
                assert_eq!((eth.dst, eth.ethertype), (Mac::BROADCAST, EtherType::Arp));
                asked.push(ArpPacket::parse(eth.payload).unwrap().tpa.octets()[3]);
            }
            asked
        };
        let queued = [17u8, 13, 19, 11, 15, 18, 16, 12, 14];
        for host in queued {
            egress.udp(7000, Ipv4Addr::new(10, 0, 0, host), 9000, b"waits");
        }
        assert_eq!(
            who_has(&mut egress, &mut rx),
            queued,
            "first requests leave as queued"
        );
        egress.retry_arp(Time::ZERO + crate::arp::REQUEST_RETRY);
        assert_eq!(
            who_has(&mut egress, &mut rx),
            [11, 12, 13, 14, 15, 16, 17, 18, 19]
        );
    }

    /// A datagram no frame can carry is refused before anything is built:
    /// nothing is sent, nothing waits for ARP, no `ident` is spent.
    #[test]
    fn oversized_datagrams_are_refused_up_front() {
        let (mut egress, mut rx) = egress_on(Runtime::new(), Mac::local(1), Some(GUEST_IP));
        egress.udp(7000, PEER_IP, 9000, &vec![0; 70_000]);
        egress.udp(7000, PEER_IP, 9000, &vec![0; 5_000]);
        egress.flush();
        assert!(rx.try_recv().is_none());
        assert_eq!(egress.arp_deadline(), None, "no who-has, nothing queued");
        assert_eq!(egress.ident, 1);

        let room = MAX_FRAME - ethernet::HEADER_LEN - ipv4::HEADER_LEN - udp::HEADER_LEN;
        egress.learn(PEER_IP, PEER_MAC);
        egress.udp(7000, PEER_IP, 9000, &vec![0; room + 1]);
        egress.flush();
        assert!(rx.try_recv().is_none());
        egress.udp(7000, PEER_IP, 9000, &vec![0; room]);
        assert_eq!(
            sent(&mut egress, &mut rx).len(),
            MAX_FRAME,
            "a full page still goes"
        );
    }
}
