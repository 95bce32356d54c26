//! The OpenFlow controller library (paper §4.3).
//!
//! "By linking against the controller library, appliances can exercise
//! direct control over hardware and software OpenFlow switches … As
//! software implementations, these libraries can be extended according to
//! specific appliance needs."
//!
//! The design mirrors NOX: a [`ControllerApp`] receives events and returns
//! messages; [`Connection`] runs the per-switch session state machine
//! (HELLO / FEATURES handshake, echo keepalive, event dispatch) as a pure
//! `bytes in → bytes out` function so it can be driven by a TCP stream, a
//! vchan, or the cbench harness directly.

use mirage_testkit::hash::DetHashMap;

use crate::wire::{
    FlowModCommand, OfAction, OfError, OfMatch, OfMessage, NO_BUFFER, PORT_FLOOD,
};

/// Application callbacks. One instance may serve many datapaths.
pub trait ControllerApp: Send {
    /// A datapath completed its handshake.
    fn switch_connected(&mut self, datapath_id: u64) {
        let _ = datapath_id;
    }

    /// A packet was punted to the controller; return messages to send back.
    fn packet_in(
        &mut self,
        datapath_id: u64,
        buffer_id: u32,
        in_port: u16,
        data: &[u8],
    ) -> Vec<OfMessage>;
}

/// The learning-switch application — the standard controller benchmark
/// workload (what cbench exercises, §4.3).
#[derive(Debug, Default)]
pub struct LearningSwitch {
    /// Per-datapath MAC→port tables.
    tables: DetHashMap<u64, DetHashMap<[u8; 6], u16>>,
    /// Flow-mods issued (stats).
    pub flows_installed: u64,
    /// Packets flooded (stats).
    pub floods: u64,
}

impl LearningSwitch {
    /// A fresh learning switch.
    pub fn new() -> LearningSwitch {
        LearningSwitch::default()
    }
}

impl ControllerApp for LearningSwitch {
    fn packet_in(
        &mut self,
        datapath_id: u64,
        buffer_id: u32,
        in_port: u16,
        data: &[u8],
    ) -> Vec<OfMessage> {
        if data.len() < 12 {
            return Vec::new();
        }
        let dst: [u8; 6] = data[0..6].try_into().expect("checked");
        let src: [u8; 6] = data[6..12].try_into().expect("checked");
        let table = self.tables.entry(datapath_id).or_default();
        table.insert(src, in_port);
        match table.get(&dst) {
            Some(&out_port) if dst != [0xFF; 6] => {
                // Known destination: install a flow and release the packet.
                self.flows_installed += 1;
                vec![
                    OfMessage::FlowMod {
                        xid: 0,
                        mat: OfMatch {
                            in_port: Some(in_port),
                            dl_src: Some(src),
                            dl_dst: Some(dst),
                            dl_type: None,
                        },
                        command: FlowModCommand::Add,
                        priority: 10,
                        idle_timeout: 60,
                        actions: vec![OfAction::Output(out_port)],
                    },
                    OfMessage::PacketOut {
                        xid: 0,
                        buffer_id,
                        in_port,
                        actions: vec![OfAction::Output(out_port)],
                        data: if buffer_id == NO_BUFFER {
                            data.to_vec()
                        } else {
                            Vec::new()
                        },
                    },
                ]
            }
            _ => {
                self.floods += 1;
                vec![OfMessage::PacketOut {
                    xid: 0,
                    buffer_id,
                    in_port,
                    actions: vec![OfAction::Output(PORT_FLOOD)],
                    data: if buffer_id == NO_BUFFER {
                        data.to_vec()
                    } else {
                        Vec::new()
                    },
                }]
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    /// Waiting for the peer HELLO.
    Hello,
    /// HELLO seen, features requested.
    Features,
    /// Operational.
    Up,
}

/// Controller-side session statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// packet-ins processed.
    pub packet_ins: u64,
    /// Messages emitted.
    pub messages_out: u64,
    /// Echo requests answered.
    pub echoes: u64,
}

/// One controller↔datapath session.
pub struct Connection<A> {
    app: A,
    state: SessionState,
    datapath_id: Option<u64>,
    buf: Vec<u8>,
    next_xid: u32,
    stats: ControllerStats,
}

impl<A> std::fmt::Debug for Connection<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Connection(dpid={:?}, {:?})", self.datapath_id, self.state)
    }
}

impl<A: ControllerApp> Connection<A> {
    /// Opens a session; returns the connection and the initial HELLO bytes
    /// to transmit.
    pub fn open(app: A) -> (Connection<A>, Vec<u8>) {
        let conn = Connection {
            app,
            state: SessionState::Hello,
            datapath_id: None,
            buf: Vec::new(),
            next_xid: 1,
            stats: ControllerStats::default(),
        };
        let hello = OfMessage::Hello { xid: 0 }.encode();
        (conn, hello)
    }

    /// The connected datapath, once the handshake completes.
    pub fn datapath_id(&self) -> Option<u64> {
        self.datapath_id
    }

    /// Session counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Access to the application (for its own stats).
    pub fn app(&self) -> &A {
        &self.app
    }

    fn xid(&mut self) -> u32 {
        let x = self.next_xid;
        self.next_xid += 1;
        x
    }

    /// Feeds received bytes; returns bytes to transmit back.
    ///
    /// # Errors
    ///
    /// Wire errors tear the session down (the caller closes the stream).
    pub fn feed(&mut self, data: &[u8]) -> Result<Vec<u8>, OfError> {
        self.buf.extend_from_slice(data);
        let mut out = Vec::new();
        while let Some(msg) = OfMessage::take_from(&mut self.buf)? {
            for reply in self.handle(msg) {
                self.stats.messages_out += 1;
                out.extend(reply.encode());
            }
        }
        Ok(out)
    }

    fn handle(&mut self, msg: OfMessage) -> Vec<OfMessage> {
        match (self.state, msg) {
            (SessionState::Hello, OfMessage::Hello { .. }) => {
                self.state = SessionState::Features;
                vec![OfMessage::FeaturesRequest { xid: self.xid() }]
            }
            (SessionState::Features, OfMessage::FeaturesReply { datapath_id, .. }) => {
                self.state = SessionState::Up;
                self.datapath_id = Some(datapath_id);
                self.app.switch_connected(datapath_id);
                Vec::new()
            }
            (_, OfMessage::EchoRequest { xid, payload }) => {
                self.stats.echoes += 1;
                vec![OfMessage::EchoReply { xid, payload }]
            }
            (
                SessionState::Up,
                OfMessage::PacketIn {
                    buffer_id,
                    in_port,
                    data,
                    ..
                },
            ) => {
                self.stats.packet_ins += 1;
                let dpid = self.datapath_id.expect("Up implies handshake done");
                let mut replies = self.app.packet_in(dpid, buffer_id, in_port, &data);
                for r in &mut replies {
                    if let OfMessage::FlowMod { xid, .. } | OfMessage::PacketOut { xid, .. } = r {
                        *xid = self.next_xid;
                        self.next_xid += 1;
                    }
                }
                replies
            }
            // Everything else is ignored (port status, errors, stats...).
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handshake(conn: &mut Connection<LearningSwitch>, dpid: u64) {
        let out = conn
            .feed(&OfMessage::Hello { xid: 0 }.encode())
            .unwrap();
        let (msg, _) = OfMessage::parse(&out).unwrap();
        assert!(matches!(msg, OfMessage::FeaturesRequest { .. }));
        let out = conn
            .feed(
                &OfMessage::FeaturesReply {
                    xid: msg.xid(),
                    datapath_id: dpid,
                    n_ports: 4,
                }
                .encode(),
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(conn.datapath_id(), Some(dpid));
    }

    fn frame(dst: [u8; 6], src: [u8; 6]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&dst);
        f.extend_from_slice(&src);
        f.extend_from_slice(&[0x08, 0x00]);
        f.extend_from_slice(&[0u8; 46]);
        f
    }

    #[test]
    fn handshake_reaches_up() {
        let (mut conn, hello) = Connection::open(LearningSwitch::new());
        assert!(!hello.is_empty());
        handshake(&mut conn, 42);
    }

    #[test]
    fn unknown_destination_floods_then_learns() {
        let (mut conn, _) = Connection::open(LearningSwitch::new());
        handshake(&mut conn, 1);
        let a = [0x02, 0, 0, 0, 0, 0xA];
        let b = [0x02, 0, 0, 0, 0, 0xB];
        // a -> b (unknown): flood.
        let out = conn
            .feed(
                &OfMessage::PacketIn {
                    xid: 9,
                    buffer_id: NO_BUFFER,
                    in_port: 1,
                    data: frame(b, a),
                }
                .encode(),
            )
            .unwrap();
        let (msg, _) = OfMessage::parse(&out).unwrap();
        assert!(
            matches!(&msg, OfMessage::PacketOut { actions, .. }
                if actions == &vec![OfAction::Output(PORT_FLOOD)])
        );
        // b -> a (a was learned on port 1): flow-mod + packet-out.
        let out = conn
            .feed(
                &OfMessage::PacketIn {
                    xid: 10,
                    buffer_id: NO_BUFFER,
                    in_port: 2,
                    data: frame(a, b),
                }
                .encode(),
            )
            .unwrap();
        let (first, used) = OfMessage::parse(&out).unwrap();
        let (second, _) = OfMessage::parse(&out[used..]).unwrap();
        assert!(matches!(first, OfMessage::FlowMod { .. }));
        assert!(
            matches!(&second, OfMessage::PacketOut { actions, .. }
                if actions == &vec![OfAction::Output(1)])
        );
        assert_eq!(conn.app().flows_installed, 1);
        assert_eq!(conn.app().floods, 1);
        assert_eq!(conn.stats().packet_ins, 2);
    }

    #[test]
    fn echo_keepalive_answered_in_any_state() {
        let (mut conn, _) = Connection::open(LearningSwitch::new());
        let out = conn
            .feed(
                &OfMessage::EchoRequest {
                    xid: 5,
                    payload: b"hb".to_vec(),
                }
                .encode(),
            )
            .unwrap();
        let (msg, _) = OfMessage::parse(&out).unwrap();
        assert_eq!(
            msg,
            OfMessage::EchoReply {
                xid: 5,
                payload: b"hb".to_vec()
            }
        );
    }

    #[test]
    fn partial_messages_buffer_until_complete() {
        let (mut conn, _) = Connection::open(LearningSwitch::new());
        let hello = OfMessage::Hello { xid: 0 }.encode();
        let out1 = conn.feed(&hello[..3]).unwrap();
        assert!(out1.is_empty());
        let out2 = conn.feed(&hello[3..]).unwrap();
        assert!(!out2.is_empty(), "completed message processed");
    }

    #[test]
    fn per_datapath_tables_are_isolated() {
        let mut app = LearningSwitch::new();
        let a = [0x02, 0, 0, 0, 0, 0xA];
        let b = [0x02, 0, 0, 0, 0, 0xB];
        // dpid 1 learns a@1.
        app.packet_in(1, NO_BUFFER, 1, &frame(b, a));
        // On dpid 2, a is unknown: b -> a must flood.
        let replies = app.packet_in(2, NO_BUFFER, 2, &frame(a, b));
        assert!(
            matches!(&replies[0], OfMessage::PacketOut { actions, .. }
                if actions == &vec![OfAction::Output(PORT_FLOOD)])
        );
    }
}
