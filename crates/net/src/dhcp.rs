//! DHCP — dynamic configuration (paper §2.3.1: "If \[cloning\] is required,
//! a dynamic configuration directive can be used (e.g., DHCP instead of a
//! static IP)").
//!
//! Both halves are provided sans-io: a [`Client`] state machine
//! (DISCOVER → OFFER → REQUEST → ACK with retransmission) and a [`Server`]
//! responder with a lease pool, so a DHCP appliance can be built from the
//! same library (Table 1 lists DHCP in the Mirage network suite).

use std::net::Ipv4Addr;

use mirage_hypervisor::{Dur, Time};
use mirage_testkit::hash::DetHashMap;

use crate::addr::Mac;

/// BOOTP magic cookie.
const COOKIE: [u8; 4] = [99, 130, 83, 99];

/// DHCP message types (option 53).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageType {
    /// Client broadcast looking for servers.
    Discover,
    /// Server offer.
    Offer,
    /// Client requests the offered address.
    Request,
    /// Server confirms the lease.
    Ack,
    /// Server refuses.
    Nak,
}

impl MessageType {
    fn to_u8(self) -> u8 {
        match self {
            MessageType::Discover => 1,
            MessageType::Offer => 2,
            MessageType::Request => 3,
            MessageType::Ack => 5,
            MessageType::Nak => 6,
        }
    }

    fn from_u8(v: u8) -> Option<MessageType> {
        Some(match v {
            1 => MessageType::Discover,
            2 => MessageType::Offer,
            3 => MessageType::Request,
            5 => MessageType::Ack,
            6 => MessageType::Nak,
            _ => return None,
        })
    }
}

/// A decoded DHCP message (the fields this stack uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message type.
    pub mtype: MessageType,
    /// Transaction id.
    pub xid: u32,
    /// `yiaddr` — the address being offered/confirmed.
    pub yiaddr: Ipv4Addr,
    /// Client hardware address.
    pub chaddr: Mac,
    /// Subnet mask option.
    pub subnet_mask: Option<Ipv4Addr>,
    /// Router (gateway) option.
    pub router: Option<Ipv4Addr>,
    /// Server identifier option.
    pub server_id: Option<Ipv4Addr>,
    /// Requested-address option.
    pub requested: Option<Ipv4Addr>,
}

impl Message {
    /// Serialises to a (simplified but structurally faithful) BOOTP+options
    /// wire format.
    pub fn build(&self) -> Vec<u8> {
        let mut p = vec![0u8; 240];
        p[0] = match self.mtype {
            MessageType::Discover | MessageType::Request => 1, // BOOTREQUEST
            _ => 2,                                            // BOOTREPLY
        };
        p[1] = 1; // htype ethernet
        p[2] = 6; // hlen
        p[4..8].copy_from_slice(&self.xid.to_be_bytes());
        p[16..20].copy_from_slice(&self.yiaddr.octets());
        p[28..34].copy_from_slice(self.chaddr.as_bytes());
        p[236..240].copy_from_slice(&COOKIE);
        // Options.
        p.extend_from_slice(&[53, 1, self.mtype.to_u8()]);
        if let Some(m) = self.subnet_mask {
            p.extend_from_slice(&[1, 4]);
            p.extend_from_slice(&m.octets());
        }
        if let Some(r) = self.router {
            p.extend_from_slice(&[3, 4]);
            p.extend_from_slice(&r.octets());
        }
        if let Some(s) = self.server_id {
            p.extend_from_slice(&[54, 4]);
            p.extend_from_slice(&s.octets());
        }
        if let Some(r) = self.requested {
            p.extend_from_slice(&[50, 4]);
            p.extend_from_slice(&r.octets());
        }
        p.push(255);
        p
    }

    /// Parses a message; `None` on malformed input.
    pub fn parse(data: &[u8]) -> Option<Message> {
        if data.len() < 241 || data[236..240] != COOKIE {
            return None;
        }
        let xid = u32::from_be_bytes(data[4..8].try_into().ok()?);
        let yiaddr = Ipv4Addr::new(data[16], data[17], data[18], data[19]);
        let chaddr = Mac(data[28..34].try_into().ok()?);
        let mut mtype = None;
        let mut subnet_mask = None;
        let mut router = None;
        let mut server_id = None;
        let mut requested = None;
        let mut opts = &data[240..];
        while let Some(&code) = opts.first() {
            match code {
                255 => break,
                0 => opts = &opts[1..],
                _ => {
                    let len = *opts.get(1)? as usize;
                    let val = opts.get(2..2 + len)?;
                    match code {
                        53 if len == 1 => mtype = MessageType::from_u8(val[0]),
                        1 if len == 4 => {
                            subnet_mask = Some(Ipv4Addr::new(val[0], val[1], val[2], val[3]))
                        }
                        3 if len == 4 => {
                            router = Some(Ipv4Addr::new(val[0], val[1], val[2], val[3]))
                        }
                        54 if len == 4 => {
                            server_id = Some(Ipv4Addr::new(val[0], val[1], val[2], val[3]))
                        }
                        50 if len == 4 => {
                            requested = Some(Ipv4Addr::new(val[0], val[1], val[2], val[3]))
                        }
                        _ => {}
                    }
                    opts = &opts[2 + len..];
                }
            }
        }
        Some(Message {
            mtype: mtype?,
            xid,
            yiaddr,
            chaddr,
            subnet_mask,
            router,
            server_id,
            requested,
        })
    }
}

/// A completed lease as the client sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Our address.
    pub ip: Ipv4Addr,
    /// Subnet mask.
    pub netmask: Ipv4Addr,
    /// Default gateway, if offered.
    pub gateway: Option<Ipv4Addr>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Selecting,
    Requesting,
    Bound,
}

/// The DHCP client state machine. Feed it inbound DHCP payloads and clock
/// readings; it emits datagrams to broadcast.
#[derive(Debug)]
pub struct Client {
    mac: Mac,
    xid: u32,
    state: ClientState,
    offer: Option<Message>,
    lease: Option<Lease>,
    next_retry: Time,
    attempts: u32,
}

/// Retransmission interval for client messages.
pub const RETRY_INTERVAL: Dur = Dur::secs(2);

impl Client {
    /// Starts a client; returns it plus the initial DISCOVER payload.
    pub fn start(mac: Mac, xid: u32, now: Time) -> (Client, Vec<u8>) {
        let c = Client {
            mac,
            xid,
            state: ClientState::Selecting,
            offer: None,
            lease: None,
            next_retry: now + RETRY_INTERVAL,
            attempts: 1,
        };
        let discover = Message {
            mtype: MessageType::Discover,
            xid,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            chaddr: mac,
            subnet_mask: None,
            router: None,
            server_id: None,
            requested: None,
        }
        .build();
        (c, discover)
    }

    /// The lease, once bound.
    pub fn lease(&self) -> Option<Lease> {
        self.lease
    }

    /// Handles an inbound DHCP payload; returns a datagram to send, if any.
    pub fn on_message(&mut self, data: &[u8], now: Time) -> Option<Vec<u8>> {
        let msg = Message::parse(data)?;
        if msg.xid != self.xid || msg.chaddr != self.mac {
            return None;
        }
        match (self.state, msg.mtype) {
            (ClientState::Selecting, MessageType::Offer) => {
                self.state = ClientState::Requesting;
                self.next_retry = now + RETRY_INTERVAL;
                let req = Message {
                    mtype: MessageType::Request,
                    xid: self.xid,
                    yiaddr: Ipv4Addr::UNSPECIFIED,
                    chaddr: self.mac,
                    subnet_mask: None,
                    router: None,
                    server_id: msg.server_id,
                    requested: Some(msg.yiaddr),
                };
                self.offer = Some(msg);
                Some(req.build())
            }
            (ClientState::Requesting, MessageType::Ack) => {
                self.state = ClientState::Bound;
                self.lease = Some(Lease {
                    ip: msg.yiaddr,
                    netmask: msg
                        .subnet_mask
                        .unwrap_or_else(|| Ipv4Addr::new(255, 255, 255, 0)),
                    gateway: msg.router,
                });
                None
            }
            (ClientState::Requesting, MessageType::Nak) => {
                // Start over.
                self.state = ClientState::Selecting;
                self.offer = None;
                let (c, discover) = Client::start(self.mac, self.xid.wrapping_add(1), now);
                *self = c;
                Some(discover)
            }
            _ => None,
        }
    }

    /// Retransmission timer; returns a datagram to re-broadcast, if due.
    pub fn poll(&mut self, now: Time) -> Option<Vec<u8>> {
        if self.state == ClientState::Bound || self.next_retry > now {
            return None;
        }
        self.next_retry = now + RETRY_INTERVAL;
        self.attempts += 1;
        match self.state {
            ClientState::Selecting => {
                Some(
                    Message {
                        mtype: MessageType::Discover,
                        xid: self.xid,
                        yiaddr: Ipv4Addr::UNSPECIFIED,
                        chaddr: self.mac,
                        subnet_mask: None,
                        router: None,
                        server_id: None,
                        requested: None,
                    }
                    .build(),
                )
            }
            ClientState::Requesting => self.offer.as_ref().map(|offer| {
                Message {
                    mtype: MessageType::Request,
                    xid: self.xid,
                    yiaddr: Ipv4Addr::UNSPECIFIED,
                    chaddr: self.mac,
                    subnet_mask: None,
                    router: None,
                    server_id: offer.server_id,
                    requested: Some(offer.yiaddr),
                }
                .build()
            }),
            ClientState::Bound => None,
        }
    }

    /// Next retransmission deadline while unbound.
    pub fn next_deadline(&self) -> Option<Time> {
        (self.state != ClientState::Bound).then_some(self.next_retry)
    }
}

/// A DHCP server with a contiguous address pool.
#[derive(Debug)]
pub struct Server {
    server_ip: Ipv4Addr,
    netmask: Ipv4Addr,
    gateway: Option<Ipv4Addr>,
    pool_next: u32,
    pool_end: u32,
    leases: DetHashMap<Mac, Ipv4Addr>,
}

impl Server {
    /// A server at `server_ip` handing out `[pool_start, pool_end]`.
    pub fn new(
        server_ip: Ipv4Addr,
        netmask: Ipv4Addr,
        gateway: Option<Ipv4Addr>,
        pool_start: Ipv4Addr,
        pool_end: Ipv4Addr,
    ) -> Server {
        Server {
            server_ip,
            netmask,
            gateway,
            pool_next: u32::from(pool_start),
            pool_end: u32::from(pool_end),
            leases: DetHashMap::default(),
        }
    }

    fn allocate(&mut self, mac: Mac) -> Option<Ipv4Addr> {
        if let Some(ip) = self.leases.get(&mac) {
            return Some(*ip);
        }
        if self.pool_next > self.pool_end {
            return None;
        }
        let ip = Ipv4Addr::from(self.pool_next);
        self.pool_next += 1;
        self.leases.insert(mac, ip);
        Some(ip)
    }

    /// Handles an inbound client payload; returns the reply datagram.
    pub fn on_message(&mut self, data: &[u8]) -> Option<Vec<u8>> {
        let msg = Message::parse(data)?;
        let reply_type = match msg.mtype {
            MessageType::Discover => MessageType::Offer,
            MessageType::Request => MessageType::Ack,
            _ => return None,
        };
        let ip = self.allocate(msg.chaddr)?;
        // A REQUEST for an address we did not offer is NAKed.
        if msg.mtype == MessageType::Request {
            if let Some(req) = msg.requested {
                if req != ip {
                    return Some(
                        Message {
                            mtype: MessageType::Nak,
                            xid: msg.xid,
                            yiaddr: Ipv4Addr::UNSPECIFIED,
                            chaddr: msg.chaddr,
                            subnet_mask: None,
                            router: None,
                            server_id: Some(self.server_ip),
                            requested: None,
                        }
                        .build(),
                    );
                }
            }
        }
        Some(
            Message {
                mtype: reply_type,
                xid: msg.xid,
                yiaddr: ip,
                chaddr: msg.chaddr,
                subnet_mask: Some(self.netmask),
                router: self.gateway,
                server_id: Some(self.server_ip),
                requested: None,
            }
            .build(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(255, 255, 255, 0),
            Some(Ipv4Addr::new(10, 0, 0, 1)),
            Ipv4Addr::new(10, 0, 0, 100),
            Ipv4Addr::new(10, 0, 0, 110),
        )
    }

    #[test]
    fn message_round_trip() {
        let msg = Message {
            mtype: MessageType::Offer,
            xid: 0xCAFE,
            yiaddr: Ipv4Addr::new(10, 0, 0, 100),
            chaddr: Mac::local(5),
            subnet_mask: Some(Ipv4Addr::new(255, 255, 255, 0)),
            router: Some(Ipv4Addr::new(10, 0, 0, 1)),
            server_id: Some(Ipv4Addr::new(10, 0, 0, 1)),
            requested: None,
        };
        assert_eq!(Message::parse(&msg.build()), Some(msg));
    }

    #[test]
    fn full_dora_exchange() {
        let mut srv = server();
        let now = Time::ZERO;
        let (mut client, discover) = Client::start(Mac::local(1), 7, now);
        let offer = srv.on_message(&discover).expect("offer");
        let request = client.on_message(&offer, now).expect("request");
        let ack = srv.on_message(&request).expect("ack");
        assert!(client.on_message(&ack, now).is_none());
        let lease = client.lease().expect("bound");
        assert_eq!(lease.ip, Ipv4Addr::new(10, 0, 0, 100));
        assert_eq!(lease.netmask, Ipv4Addr::new(255, 255, 255, 0));
        assert_eq!(lease.gateway, Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(srv.leases.len(), 1);
    }

    #[test]
    fn same_mac_gets_same_address() {
        let mut srv = server();
        let d1 = Client::start(Mac::local(1), 1, Time::ZERO).1;
        let d2 = Client::start(Mac::local(1), 2, Time::ZERO).1;
        let o1 = Message::parse(&srv.on_message(&d1).unwrap()).unwrap();
        let o2 = Message::parse(&srv.on_message(&d2).unwrap()).unwrap();
        assert_eq!(o1.yiaddr, o2.yiaddr);
        assert_eq!(srv.leases.len(), 1);
    }

    #[test]
    fn pool_exhaustion_goes_silent() {
        let mut srv = Server::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(255, 255, 255, 0),
            None,
            Ipv4Addr::new(10, 0, 0, 100),
            Ipv4Addr::new(10, 0, 0, 100), // one address
        );
        let d1 = Client::start(Mac::local(1), 1, Time::ZERO).1;
        let d2 = Client::start(Mac::local(2), 2, Time::ZERO).1;
        assert!(srv.on_message(&d1).is_some());
        assert!(srv.on_message(&d2).is_none(), "pool empty");
    }

    #[test]
    fn client_retransmits_discover() {
        let now = Time::ZERO;
        let (mut client, _discover) = Client::start(Mac::local(1), 1, now);
        assert!(client.poll(now).is_none(), "not due yet");
        let later = now + RETRY_INTERVAL + Dur::millis(1);
        let resent = client.poll(later).expect("retransmitted");
        let msg = Message::parse(&resent).unwrap();
        assert_eq!(msg.mtype, MessageType::Discover);
    }

    #[test]
    fn foreign_xid_ignored() {
        let mut srv = server();
        let now = Time::ZERO;
        let (mut client, discover) = Client::start(Mac::local(1), 7, now);
        let mut offer = srv.on_message(&discover).unwrap();
        offer[4..8].copy_from_slice(&999u32.to_be_bytes()); // wrong xid
        assert!(client.on_message(&offer, now).is_none());
    }
}
