//! OpenFlow 1.0 wire format (paper §4.3).
//!
//! "OpenFlow is a software-defined networking standard for Ethernet
//! switches. It defines an architecture and a protocol by which the
//! controller can manipulate flow tables in Ethernet switches, termed
//! datapaths." This module provides the subset of OF 1.0 the paper's
//! controller and switch libraries exercise: the handshake, echo,
//! packet-in/packet-out, and flow-mod with the 10-tuple match.

/// Protocol version byte for OpenFlow 1.0.
pub const OFP_VERSION: u8 = 0x01;

/// Flood "port" (packet-out to all ports except ingress).
pub const PORT_FLOOD: u16 = 0xFFFB;
/// "No buffer" sentinel.
pub const NO_BUFFER: u32 = 0xFFFF_FFFF;

/// Message type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum MsgType {
    Hello = 0,
    Error = 1,
    EchoRequest = 2,
    EchoReply = 3,
    FeaturesRequest = 5,
    FeaturesReply = 6,
    PacketIn = 10,
    PacketOut = 13,
    FlowMod = 14,
}

/// The OF 1.0 flow match (10-tuple; unused fields wildcarded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OfMatch {
    /// Ingress port (`None` = wildcard).
    pub in_port: Option<u16>,
    /// Source MAC.
    pub dl_src: Option<[u8; 6]>,
    /// Destination MAC.
    pub dl_dst: Option<[u8; 6]>,
    /// EtherType.
    pub dl_type: Option<u16>,
}

impl OfMatch {
    /// Whether this match covers the packet metadata.
    pub fn matches(&self, in_port: u16, dl_src: [u8; 6], dl_dst: [u8; 6], dl_type: u16) -> bool {
        self.in_port.map(|p| p == in_port).unwrap_or(true)
            && self.dl_src.map(|m| m == dl_src).unwrap_or(true)
            && self.dl_dst.map(|m| m == dl_dst).unwrap_or(true)
            && self.dl_type.map(|t| t == dl_type).unwrap_or(true)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        // wildcards: bit0 in_port, bit2 dl_src, bit3 dl_dst, bit4 dl_type
        let mut wildcards = 0u32;
        if self.in_port.is_none() {
            wildcards |= 1 << 0;
        }
        if self.dl_src.is_none() {
            wildcards |= 1 << 2;
        }
        if self.dl_dst.is_none() {
            wildcards |= 1 << 3;
        }
        if self.dl_type.is_none() {
            wildcards |= 1 << 4;
        }
        out.extend_from_slice(&wildcards.to_be_bytes());
        out.extend_from_slice(&self.in_port.unwrap_or(0).to_be_bytes());
        out.extend_from_slice(&self.dl_src.unwrap_or_default());
        out.extend_from_slice(&self.dl_dst.unwrap_or_default());
        out.extend_from_slice(&self.dl_type.unwrap_or(0).to_be_bytes());
        // Pad the remainder of the 40-byte OF 1.0 match structure.
        out.extend_from_slice(&[0u8; 20]);
    }

    fn decode(data: &[u8]) -> Option<(OfMatch, usize)> {
        if data.len() < 40 {
            return None;
        }
        let wildcards = u32::from_be_bytes(data[0..4].try_into().ok()?);
        let in_port = (wildcards & 1 == 0)
            .then(|| u16::from_be_bytes([data[4], data[5]]));
        let dl_src = (wildcards & (1 << 2) == 0).then(|| data[6..12].try_into().unwrap());
        let dl_dst = (wildcards & (1 << 3) == 0).then(|| data[12..18].try_into().unwrap());
        let dl_type =
            (wildcards & (1 << 4) == 0).then(|| u16::from_be_bytes([data[18], data[19]]));
        Some((
            OfMatch {
                in_port,
                dl_src,
                dl_dst,
                dl_type,
            },
            40,
        ))
    }
}

/// Flow actions (output only — all the learning switch needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfAction {
    /// Forward out of a port ([`PORT_FLOOD`] floods).
    Output(u16),
}

impl OfAction {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            OfAction::Output(port) => {
                out.extend_from_slice(&0u16.to_be_bytes()); // OFPAT_OUTPUT
                out.extend_from_slice(&8u16.to_be_bytes()); // length
                out.extend_from_slice(&port.to_be_bytes());
                out.extend_from_slice(&0u16.to_be_bytes()); // max_len
            }
        }
    }

    fn decode(data: &[u8]) -> Option<(OfAction, usize)> {
        if data.len() < 8 {
            return None;
        }
        let atype = u16::from_be_bytes([data[0], data[1]]);
        let alen = u16::from_be_bytes([data[2], data[3]]) as usize;
        if atype != 0 || alen < 8 || data.len() < alen {
            return None;
        }
        Some((
            OfAction::Output(u16::from_be_bytes([data[4], data[5]])),
            alen,
        ))
    }
}

/// Flow-mod commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowModCommand {
    /// Add a flow.
    Add,
    /// Delete matching flows.
    Delete,
}

/// A parsed OpenFlow message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfMessage {
    /// Version negotiation.
    Hello {
        /// Transaction id.
        xid: u32,
    },
    /// Liveness probe.
    EchoRequest {
        /// Transaction id.
        xid: u32,
        /// Opaque payload (echoed).
        payload: Vec<u8>,
    },
    /// Liveness reply.
    EchoReply {
        /// Transaction id.
        xid: u32,
        /// Echoed payload.
        payload: Vec<u8>,
    },
    /// Controller asks for datapath features.
    FeaturesRequest {
        /// Transaction id.
        xid: u32,
    },
    /// Datapath feature announcement.
    FeaturesReply {
        /// Transaction id.
        xid: u32,
        /// Datapath id.
        datapath_id: u64,
        /// Number of ports.
        n_ports: u16,
    },
    /// A packet punted to the controller.
    PacketIn {
        /// Transaction id.
        xid: u32,
        /// Buffer id on the switch ([`NO_BUFFER`] if unbuffered).
        buffer_id: u32,
        /// Ingress port.
        in_port: u16,
        /// Frame prefix.
        data: Vec<u8>,
    },
    /// Controller tells the switch to emit a packet.
    PacketOut {
        /// Transaction id.
        xid: u32,
        /// Buffer to release, or [`NO_BUFFER`].
        buffer_id: u32,
        /// Original ingress port.
        in_port: u16,
        /// Actions to apply.
        actions: Vec<OfAction>,
        /// Frame data (when unbuffered).
        data: Vec<u8>,
    },
    /// Flow-table modification.
    FlowMod {
        /// Transaction id.
        xid: u32,
        /// Match.
        mat: OfMatch,
        /// Command.
        command: FlowModCommand,
        /// Priority (higher wins).
        priority: u16,
        /// Idle timeout in seconds (0 = permanent).
        idle_timeout: u16,
        /// Actions.
        actions: Vec<OfAction>,
    },
    /// Error report.
    Error {
        /// Transaction id.
        xid: u32,
        /// Type code.
        etype: u16,
        /// Reason code.
        code: u16,
    },
}

/// Wire decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfError {
    /// Not enough bytes / bad structure.
    Truncated,
    /// Unsupported version.
    BadVersion,
    /// Unknown message type.
    BadType,
}

impl std::fmt::Display for OfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            OfError::Truncated => "truncated openflow message",
            OfError::BadVersion => "unsupported openflow version",
            OfError::BadType => "unknown openflow message type",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for OfError {}

fn header(mtype: MsgType, xid: u32, body_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body_len);
    out.push(OFP_VERSION);
    out.push(mtype as u8);
    out.extend_from_slice(&((8 + body_len) as u16).to_be_bytes());
    out.extend_from_slice(&xid.to_be_bytes());
    out
}

impl OfMessage {
    /// Transaction id of any message.
    pub fn xid(&self) -> u32 {
        match self {
            OfMessage::Hello { xid }
            | OfMessage::EchoRequest { xid, .. }
            | OfMessage::EchoReply { xid, .. }
            | OfMessage::FeaturesRequest { xid }
            | OfMessage::FeaturesReply { xid, .. }
            | OfMessage::PacketIn { xid, .. }
            | OfMessage::PacketOut { xid, .. }
            | OfMessage::FlowMod { xid, .. }
            | OfMessage::Error { xid, .. } => *xid,
        }
    }

    /// Serialises the message.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            OfMessage::Hello { xid } => header(MsgType::Hello, *xid, 0),
            OfMessage::EchoRequest { xid, payload } => {
                let mut out = header(MsgType::EchoRequest, *xid, payload.len());
                out.extend_from_slice(payload);
                out
            }
            OfMessage::EchoReply { xid, payload } => {
                let mut out = header(MsgType::EchoReply, *xid, payload.len());
                out.extend_from_slice(payload);
                out
            }
            OfMessage::FeaturesRequest { xid } => header(MsgType::FeaturesRequest, *xid, 0),
            OfMessage::FeaturesReply {
                xid,
                datapath_id,
                n_ports,
            } => {
                let mut out = header(MsgType::FeaturesReply, *xid, 28);
                out.extend_from_slice(&datapath_id.to_be_bytes());
                out.extend_from_slice(&256u32.to_be_bytes()); // n_buffers
                out.push(2); // n_tables
                out.extend_from_slice(&[0u8; 3]); // pad
                out.extend_from_slice(&0u32.to_be_bytes()); // capabilities
                out.extend_from_slice(&1u32.to_be_bytes()); // actions
                out.extend_from_slice(&n_ports.to_be_bytes());
                out.extend_from_slice(&[0u8; 2]);
                out
            }
            OfMessage::PacketIn {
                xid,
                buffer_id,
                in_port,
                data,
            } => {
                let mut out = header(MsgType::PacketIn, *xid, 10 + data.len());
                out.extend_from_slice(&buffer_id.to_be_bytes());
                out.extend_from_slice(&(data.len() as u16).to_be_bytes());
                out.extend_from_slice(&in_port.to_be_bytes());
                out.push(0); // reason: no-match
                out.push(0); // pad
                out.extend_from_slice(data);
                out
            }
            OfMessage::PacketOut {
                xid,
                buffer_id,
                in_port,
                actions,
                data,
            } => {
                let mut abuf = Vec::new();
                for a in actions {
                    a.encode(&mut abuf);
                }
                let mut out = header(MsgType::PacketOut, *xid, 8 + abuf.len() + data.len());
                out.extend_from_slice(&buffer_id.to_be_bytes());
                out.extend_from_slice(&in_port.to_be_bytes());
                out.extend_from_slice(&(abuf.len() as u16).to_be_bytes());
                out.extend_from_slice(&abuf);
                out.extend_from_slice(data);
                out
            }
            OfMessage::FlowMod {
                xid,
                mat,
                command,
                priority,
                idle_timeout,
                actions,
            } => {
                let mut body = Vec::new();
                mat.encode(&mut body);
                body.extend_from_slice(&0u64.to_be_bytes()); // cookie
                body.extend_from_slice(
                    &match command {
                        FlowModCommand::Add => 0u16,
                        FlowModCommand::Delete => 3u16,
                    }
                    .to_be_bytes(),
                );
                body.extend_from_slice(&idle_timeout.to_be_bytes());
                body.extend_from_slice(&0u16.to_be_bytes()); // hard timeout
                body.extend_from_slice(&priority.to_be_bytes());
                body.extend_from_slice(&NO_BUFFER.to_be_bytes());
                body.extend_from_slice(&0u16.to_be_bytes()); // out_port
                body.extend_from_slice(&0u16.to_be_bytes()); // flags
                for a in actions {
                    a.encode(&mut body);
                }
                let mut out = header(MsgType::FlowMod, *xid, body.len());
                out.extend_from_slice(&body);
                out
            }
            OfMessage::Error { xid, etype, code } => {
                let mut out = header(MsgType::Error, *xid, 4);
                out.extend_from_slice(&etype.to_be_bytes());
                out.extend_from_slice(&code.to_be_bytes());
                out
            }
        }
    }

    /// Takes the next whole message off the front of `buf`; `None` while
    /// `buf` holds less than one.
    ///
    /// # Errors
    ///
    /// [`OfError::Truncated`] for a length field shorter than the header
    /// — the stream cannot be framed past it — and see [`Self::parse`].
    pub(crate) fn take_from(buf: &mut Vec<u8>) -> Result<Option<OfMessage>, OfError> {
        if buf.len() < 8 {
            return Ok(None);
        }
        let length = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if length < 8 {
            return Err(OfError::Truncated);
        }
        if buf.len() < length {
            return Ok(None);
        }
        let (msg, used) = OfMessage::parse(buf)?;
        buf.drain(..used);
        Ok(Some(msg))
    }

    /// Parses one message; returns it and the bytes consumed.
    ///
    /// # Errors
    ///
    /// See [`OfError`].
    pub fn parse(data: &[u8]) -> Result<(OfMessage, usize), OfError> {
        if data.len() < 8 {
            return Err(OfError::Truncated);
        }
        if data[0] != OFP_VERSION {
            return Err(OfError::BadVersion);
        }
        let mtype = data[1];
        let length = u16::from_be_bytes([data[2], data[3]]) as usize;
        if length < 8 || data.len() < length {
            return Err(OfError::Truncated);
        }
        let xid = u32::from_be_bytes(data[4..8].try_into().expect("4 bytes"));
        let body = &data[8..length];
        let msg = match mtype {
            0 => OfMessage::Hello { xid },
            1 => {
                if body.len() < 4 {
                    return Err(OfError::Truncated);
                }
                OfMessage::Error {
                    xid,
                    etype: u16::from_be_bytes([body[0], body[1]]),
                    code: u16::from_be_bytes([body[2], body[3]]),
                }
            }
            2 => OfMessage::EchoRequest {
                xid,
                payload: body.to_vec(),
            },
            3 => OfMessage::EchoReply {
                xid,
                payload: body.to_vec(),
            },
            5 => OfMessage::FeaturesRequest { xid },
            6 => {
                if body.len() < 28 {
                    return Err(OfError::Truncated);
                }
                OfMessage::FeaturesReply {
                    xid,
                    datapath_id: u64::from_be_bytes(body[0..8].try_into().expect("8")),
                    n_ports: u16::from_be_bytes([body[24], body[25]]),
                }
            }
            10 => {
                if body.len() < 10 {
                    return Err(OfError::Truncated);
                }
                OfMessage::PacketIn {
                    xid,
                    buffer_id: u32::from_be_bytes(body[0..4].try_into().expect("4")),
                    in_port: u16::from_be_bytes([body[6], body[7]]),
                    data: body[10..].to_vec(),
                }
            }
            13 => {
                if body.len() < 8 {
                    return Err(OfError::Truncated);
                }
                let buffer_id = u32::from_be_bytes(body[0..4].try_into().expect("4"));
                let in_port = u16::from_be_bytes([body[4], body[5]]);
                let actions_len = u16::from_be_bytes([body[6], body[7]]) as usize;
                let mut actions = Vec::new();
                let mut at = 8;
                let actions_end = 8 + actions_len;
                if body.len() < actions_end {
                    return Err(OfError::Truncated);
                }
                while at < actions_end {
                    let (a, used) =
                        OfAction::decode(&body[at..actions_end]).ok_or(OfError::Truncated)?;
                    actions.push(a);
                    at += used;
                }
                OfMessage::PacketOut {
                    xid,
                    buffer_id,
                    in_port,
                    actions,
                    data: body[actions_end..].to_vec(),
                }
            }
            14 => {
                let (mat, used) = OfMatch::decode(body).ok_or(OfError::Truncated)?;
                let rest = &body[used..];
                if rest.len() < 24 {
                    return Err(OfError::Truncated);
                }
                let command = match u16::from_be_bytes([rest[8], rest[9]]) {
                    0 => FlowModCommand::Add,
                    3 => FlowModCommand::Delete,
                    _ => return Err(OfError::BadType),
                };
                let idle_timeout = u16::from_be_bytes([rest[10], rest[11]]);
                let priority = u16::from_be_bytes([rest[14], rest[15]]);
                let mut actions = Vec::new();
                let mut at = 24;
                while at < rest.len() {
                    let (a, used) = OfAction::decode(&rest[at..]).ok_or(OfError::Truncated)?;
                    actions.push(a);
                    at += used;
                }
                OfMessage::FlowMod {
                    xid,
                    mat,
                    command,
                    priority,
                    idle_timeout,
                    actions,
                }
            }
            _ => return Err(OfError::BadType),
        };
        Ok((msg, length))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    fn round_trip(msg: OfMessage) {
        let wire = msg.encode();
        let (parsed, used) = OfMessage::parse(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(parsed, msg);
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(OfMessage::Hello { xid: 1 });
        round_trip(OfMessage::EchoRequest {
            xid: 2,
            payload: b"ping".to_vec(),
        });
        round_trip(OfMessage::EchoReply {
            xid: 2,
            payload: b"ping".to_vec(),
        });
        round_trip(OfMessage::FeaturesRequest { xid: 3 });
        round_trip(OfMessage::FeaturesReply {
            xid: 3,
            datapath_id: 0xCAFEBABE,
            n_ports: 48,
        });
        round_trip(OfMessage::PacketIn {
            xid: 4,
            buffer_id: 77,
            in_port: 3,
            data: vec![0xAA; 64],
        });
        round_trip(OfMessage::PacketOut {
            xid: 5,
            buffer_id: NO_BUFFER,
            in_port: 3,
            actions: vec![OfAction::Output(7), OfAction::Output(PORT_FLOOD)],
            data: vec![0xBB; 60],
        });
        round_trip(OfMessage::FlowMod {
            xid: 6,
            mat: OfMatch {
                in_port: Some(1),
                dl_src: Some([1, 2, 3, 4, 5, 6]),
                dl_dst: Some([6, 5, 4, 3, 2, 1]),
                dl_type: Some(0x0800),
            },
            command: FlowModCommand::Add,
            priority: 100,
            idle_timeout: 60,
            actions: vec![OfAction::Output(9)],
        });
        round_trip(OfMessage::Error {
            xid: 7,
            etype: 1,
            code: 2,
        });
    }

    #[test]
    fn match_wildcards_behave() {
        let exact = OfMatch {
            in_port: Some(1),
            dl_src: Some([1; 6]),
            dl_dst: Some([2; 6]),
            dl_type: Some(0x0800),
        };
        assert!(exact.matches(1, [1; 6], [2; 6], 0x0800));
        assert!(!exact.matches(2, [1; 6], [2; 6], 0x0800));
        let wild = OfMatch::default();
        assert!(wild.matches(9, [9; 6], [9; 6], 0x86DD));
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(OfMessage::parse(&[1, 0, 0]), Err(OfError::Truncated));
        assert_eq!(
            OfMessage::parse(&[9, 0, 0, 8, 0, 0, 0, 0]),
            Err(OfError::BadVersion)
        );
        assert_eq!(
            OfMessage::parse(&[1, 99, 0, 8, 0, 0, 0, 0]),
            Err(OfError::BadType)
        );
    }

    mirage_testkit::property! {
        fn prop_packet_in_round_trip(xid in any::<u32>(), port in any::<u16>(),
                                     data in collection::vec(any::<u8>(), 0..256)) {
            round_trip(OfMessage::PacketIn { xid, buffer_id: NO_BUFFER, in_port: port, data });
        }
    }
}
