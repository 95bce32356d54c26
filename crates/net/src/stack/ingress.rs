//! The way in: a received frame becomes calls on the components — ARP
//! learning, the echo responder, UDP delivery, TCP demux and admission —
//! and the datagram-side endpoints those deliveries land on.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

use mirage_cstruct::PktBuf;
use mirage_hypervisor::{Dur, Time};
use mirage_runtime::channel::{self, Receiver, Sender};
use mirage_testkit::hash::DetHashMap;

use super::conns::ConnEntry;
use super::egress::Egress;
use super::socket::UdpDelivery;
use super::{tcp_trace, trace_segment, NetError, Worker};
use crate::arp::{ArpOp, ArpPacket};
use crate::dhcp;
use crate::ethernet::{self, EtherType, Frame};
use crate::icmp::Echo;
use crate::ipv4::{protocol, Ipv4Packet};
use crate::tcp::{self, Event, TcpSegment};
use crate::udp::UdpDatagram;

const PING_TIMEOUT: Dur = Dur::secs(5);

/// The ports the DHCP client and server speak on.
const DHCP_CLIENT_PORT: u16 = 68;
const DHCP_SERVER_PORT: u16 = 67;

struct PendingPing {
    seq: u16,
    reply: Sender<Result<Dur, NetError>>,
    sent_at: Time,
}

/// Where datagrams addressed to this interface end up: bound UDP sockets,
/// pings awaiting their echo, and the DHCP client while it has no lease.
#[derive(Default)]
pub(super) struct Endpoints {
    udp_socks: DetHashMap<u16, Sender<UdpDelivery>>,
    /// In send order, so the front times out first.
    pings: VecDeque<PendingPing>,
    ping_seq: u16,
    dhcp: Option<dhcp::Client>,
}

impl Endpoints {
    /// Binds a UDP port; its delivery queue is the result.
    pub(super) fn bind_udp(&mut self, port: u16) -> Result<Receiver<UdpDelivery>, NetError> {
        match self.udp_socks.entry(port) {
            Entry::Vacant(e) => {
                let (tx, rx) = channel::channel();
                e.insert(tx);
                Ok(rx)
            }
            Entry::Occupied(_) => Err(NetError::PortInUse),
        }
    }

    /// Sends an echo request to `dst`; `reply` hears the round trip, or
    /// [`NetError::TimedOut`] after [`PING_TIMEOUT`].
    pub(super) fn ping(
        &mut self,
        dst: Ipv4Addr,
        reply: Sender<Result<Dur, NetError>>,
        now: Time,
        egress: &mut Egress,
    ) {
        // Sequence numbers start at 1.
        self.ping_seq = self.ping_seq.wrapping_add(1);
        let seq = self.ping_seq;
        self.pings.push_back(PendingPing {
            seq,
            reply,
            sent_at: now,
        });
        let echo = Echo {
            is_request: true,
            ident: 0x4D52,
            seq,
            payload: b"mirage-rs ping",
        };
        egress.echo(dst, &echo);
    }

    fn ping_answered(&mut self, seq: u16, now: Time) {
        if let Some(i) = self.pings.iter().position(|p| p.seq == seq) {
            let p = self.pings.remove(i).expect("just found");
            let _ = p.reply.send(Ok(now.saturating_since(p.sent_at)));
        }
    }

    /// Fails every ping whose echo is overdue.
    pub(super) fn expire_pings(&mut self, now: Time) {
        while self.ping_deadline().is_some_and(|t| t <= now) {
            let p = self.pings.pop_front().expect("has a deadline");
            let _ = p.reply.send(Err(NetError::TimedOut));
        }
    }

    pub(super) fn ping_deadline(&self) -> Option<Time> {
        self.pings.front().map(|p| p.sent_at + PING_TIMEOUT)
    }

    /// Starts the DHCP client: broadcasts its DISCOVER.
    pub(super) fn start_dhcp(&mut self, now: Time, egress: &mut Egress) {
        let (client, discover) = dhcp::Client::start(egress.mac(), 0x4D495241, now);
        self.dhcp = Some(client);
        broadcast_dhcp(egress, &discover);
    }

    /// Feeds a server's message to the DHCP client, if one is running;
    /// true once that completes the lease.
    fn on_dhcp(&mut self, message: &[u8], now: Time, egress: &mut Egress) -> bool {
        let Some(client) = self.dhcp.as_mut() else {
            return false;
        };
        let response = client.on_message(message, now);
        if let Some(lease) = client.lease() {
            egress.adopt(&lease);
            self.dhcp = None;
            return true;
        }
        if let Some(out) = response {
            broadcast_dhcp(egress, &out);
        }
        false
    }

    /// Retransmits the DHCP client's last message if its answer is overdue.
    pub(super) fn poll_dhcp(&mut self, now: Time, egress: &mut Egress) {
        if let Some(msg) = self.dhcp.as_mut().and_then(|c| c.poll(now)) {
            broadcast_dhcp(egress, &msg);
        }
    }

    pub(super) fn dhcp_deadline(&self) -> Option<Time> {
        self.dhcp.as_ref().and_then(|c| c.next_deadline())
    }
}

fn broadcast_dhcp(egress: &mut Egress, message: &[u8]) {
    egress.udp(
        DHCP_CLIENT_PORT,
        Ipv4Addr::BROADCAST,
        DHCP_SERVER_PORT,
        message,
    );
}

impl Worker {
    pub(super) fn on_frame(&mut self, frame: &PktBuf) {
        self.rt.charge_with(|costs| costs.copy(frame.len().min(128)));
        let Some(eth) = Frame::parse(frame.as_slice()) else {
            return;
        };
        if eth.dst != self.egress.mac() && !eth.dst.is_broadcast() {
            return;
        }
        match eth.ethertype {
            EtherType::Arp => self.on_arp(eth.payload),
            EtherType::Ipv4 => self.on_ipv4(&frame.slice(ethernet::HEADER_LEN..)),
            EtherType::Other(_) => {}
        }
    }

    fn on_arp(&mut self, payload: &[u8]) {
        let Some(pkt) = ArpPacket::parse(payload) else {
            return;
        };
        // Learn the sender and release anything queued on it.
        self.egress.learn(pkt.spa, pkt.sha);
        let ip = self.egress.ip();
        if pkt.op == ArpOp::Request && pkt.tpa == ip && !ip.is_unspecified() {
            self.egress.arp(ArpOp::Reply, pkt.sha, pkt.spa);
        }
    }

    fn on_ipv4(&mut self, buf: &PktBuf) {
        let Ok(pkt) = Ipv4Packet::parse(buf.as_slice()) else {
            return;
        };
        let ip = self.egress.ip();
        let for_us = pkt.dst == ip || pkt.dst == Ipv4Addr::BROADCAST || ip.is_unspecified();
        if !for_us {
            return;
        }
        match pkt.protocol {
            protocol::ICMP => self.on_icmp(pkt.src, pkt.payload),
            protocol::UDP => self.on_udp(pkt.src, pkt.dst, &buf.slice(pkt.payload_range())),
            protocol::TCP => self.on_tcp(pkt.src, pkt.dst, &buf.slice(pkt.payload_range())),
            _ => {}
        }
    }

    fn on_icmp(&mut self, src: Ipv4Addr, payload: &[u8]) {
        let Some(echo) = Echo::parse(payload) else {
            return;
        };
        if echo.is_request {
            self.egress.echo(src, &echo.reply());
        } else {
            let now = self.rt.now();
            self.endpoints.ping_answered(echo.seq, now);
        }
    }

    fn on_udp(&mut self, src: Ipv4Addr, dst: Ipv4Addr, buf: &PktBuf) {
        let Some(dgram) = UdpDatagram::parse(src, dst, buf.as_slice()) else {
            return;
        };
        // DHCP client traffic is handled by the stack itself.
        if dgram.dst_port == DHCP_CLIENT_PORT {
            let now = self.rt.now();
            if self.endpoints.on_dhcp(dgram.payload, now, &mut self.egress) {
                self.ready.notify_all();
            }
            return;
        }
        if let Some(sock) = self.endpoints.udp_socks.get(&dgram.dst_port) {
            // Deliver a view over the received page, not a copy.
            let _ = sock.send((src, dgram.src_port, buf.slice(dgram.payload_range())));
        }
    }

    fn on_tcp(&mut self, src: Ipv4Addr, dst: Ipv4Addr, buf: &PktBuf) {
        let Some(seg) = TcpSegment::parse(src, dst, buf) else {
            return;
        };
        let now = self.rt.now();
        if tcp_trace() {
            trace_segment(
                now,
                format_args!("{dst:?} RX {src}:{}->:{}", seg.src_port, seg.dst_port),
                (seg.seq, seg.ack),
                seg.payload.len(),
                seg.window,
                seg.flags,
            );
        }
        let peer = (src, seg.src_port);
        let id = match self.conns.lookup(&(src, seg.src_port, seg.dst_port)) {
            Some(id) => id,
            None => match self.admission.admit(src, &seg, self.conns.half_open()) {
                Ok(conn) => {
                    let established = conn.state() == tcp::State::Established;
                    let entry = ConnEntry::new(conn, peer, seg.dst_port, None);
                    let id = self.conns.insert(entry);
                    if established {
                        // A returning SYN cookie: surface the accept before
                        // any payload its ACK may carry.
                        let mut connected = tcp::Output {
                            segments: Vec::new(),
                            events: vec![Event::Connected],
                        };
                        self.conns.apply(id, &mut connected, &mut self.egress);
                    }
                    id
                }
                Err(answer) => {
                    if let Some(answer) = answer {
                        self.egress.tcp(seg.dst_port, peer, &answer);
                    }
                    return;
                }
            },
        };
        self.conns.on_segment(id, &seg, now, &mut self.egress);
    }
}
