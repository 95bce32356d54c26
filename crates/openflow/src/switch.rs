//! The OpenFlow switch (datapath) library (paper §4.3).
//!
//! "Conversely, by linking against the switch library, an appliance can be
//! controlled as if it were an OpenFlow switch, useful in scenarios where
//! the appliance provides network layer functionality, e.g., acts as a
//! router, switch, firewall, proxy or other middlebox."

use crate::wire::{FlowModCommand, OfAction, OfError, OfMatch, OfMessage, NO_BUFFER, PORT_FLOOD};

/// One installed flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEntry {
    /// Match.
    pub mat: OfMatch,
    /// Priority (higher wins).
    pub priority: u16,
    /// Actions.
    pub actions: Vec<OfAction>,
    /// Hit counter.
    pub packets: u64,
}

/// What the datapath wants done with a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Forward {
    /// Emit the frame on these ports.
    Ports(Vec<u16>),
    /// Flood (all ports except ingress).
    Flood,
    /// No matching flow — the frame was punted to the controller; transmit
    /// these bytes on the control channel.
    Punt(Vec<u8>),
    /// Drop.
    Drop,
}

/// Datapath statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwitchStats {
    /// Frames matched in the flow table.
    pub table_hits: u64,
    /// Frames punted to the controller.
    pub punts: u64,
    /// Flow-mods applied.
    pub flow_mods: u64,
}

/// An OpenFlow 1.0 datapath: a flow table plus the controller session.
#[derive(Debug)]
pub struct OfSwitch {
    datapath_id: u64,
    n_ports: u16,
    flows: Vec<FlowEntry>,
    buf: Vec<u8>,
    next_xid: u32,
    stats: SwitchStats,
    handshaken: bool,
}

impl OfSwitch {
    /// A datapath with `n_ports` ports.
    pub fn new(datapath_id: u64, n_ports: u16) -> OfSwitch {
        OfSwitch {
            datapath_id,
            n_ports,
            flows: Vec::new(),
            buf: Vec::new(),
            next_xid: 1,
            stats: SwitchStats::default(),
            handshaken: false,
        }
    }

    /// Datapath id.
    pub fn datapath_id(&self) -> u64 {
        self.datapath_id
    }

    /// Counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Installed flows (inspection).
    pub fn flows(&self) -> &[FlowEntry] {
        &self.flows
    }

    /// Initial bytes to send when the control channel opens.
    pub fn hello(&mut self) -> Vec<u8> {
        OfMessage::Hello { xid: 0 }.encode()
    }

    /// Feeds control-channel bytes; returns `(control replies, frames to
    /// emit as (port, frame))`.
    ///
    /// # Errors
    ///
    /// Wire errors tear the channel down.
    #[allow(clippy::type_complexity)]
    pub fn feed_control(
        &mut self,
        data: &[u8],
    ) -> Result<(Vec<u8>, Vec<(u16, Vec<u8>)>), OfError> {
        self.buf.extend_from_slice(data);
        let mut control_out = Vec::new();
        let mut frames_out = Vec::new();
        while let Some(msg) = OfMessage::take_from(&mut self.buf)? {
            match msg {
                OfMessage::Hello { .. } => {
                    self.handshaken = true;
                }
                OfMessage::FeaturesRequest { xid } => {
                    control_out.extend(
                        OfMessage::FeaturesReply {
                            xid,
                            datapath_id: self.datapath_id,
                            n_ports: self.n_ports,
                        }
                        .encode(),
                    );
                }
                OfMessage::EchoRequest { xid, payload } => {
                    control_out.extend(OfMessage::EchoReply { xid, payload }.encode());
                }
                OfMessage::FlowMod {
                    mat,
                    command,
                    priority,
                    actions,
                    ..
                } => {
                    self.stats.flow_mods += 1;
                    match command {
                        FlowModCommand::Add => {
                            self.flows.push(FlowEntry {
                                mat,
                                priority,
                                actions,
                                packets: 0,
                            });
                            // Highest priority first.
                            self.flows.sort_by_key(|f| std::cmp::Reverse(f.priority));
                        }
                        FlowModCommand::Delete => {
                            self.flows.retain(|f| f.mat != mat);
                        }
                    }
                }
                OfMessage::PacketOut {
                    in_port,
                    actions,
                    data,
                    ..
                } => {
                    for action in actions {
                        match action {
                            OfAction::Output(PORT_FLOOD) => {
                                for p in 1..=self.n_ports {
                                    if p != in_port {
                                        frames_out.push((p, data.clone()));
                                    }
                                }
                            }
                            OfAction::Output(port) => frames_out.push((port, data.clone())),
                        }
                    }
                }
                _ => {}
            }
        }
        Ok((control_out, frames_out))
    }

    /// Processes a data-plane frame arriving on `in_port`.
    pub fn process_frame(&mut self, in_port: u16, frame: &[u8]) -> Forward {
        if frame.len() < 14 {
            return Forward::Drop;
        }
        let dst: [u8; 6] = frame[0..6].try_into().expect("checked");
        let src: [u8; 6] = frame[6..12].try_into().expect("checked");
        let dl_type = u16::from_be_bytes([frame[12], frame[13]]);
        for flow in &mut self.flows {
            if flow.mat.matches(in_port, src, dst, dl_type) {
                flow.packets += 1;
                self.stats.table_hits += 1;
                let mut ports = Vec::new();
                for action in &flow.actions {
                    match action {
                        OfAction::Output(p) if *p == PORT_FLOOD => return Forward::Flood,
                        OfAction::Output(p) => ports.push(*p),
                    }
                }
                return if ports.is_empty() {
                    Forward::Drop
                } else {
                    Forward::Ports(ports)
                };
            }
        }
        // Table miss: punt to the controller.
        self.stats.punts += 1;
        let xid = self.next_xid;
        self.next_xid += 1;
        Forward::Punt(
            OfMessage::PacketIn {
                xid,
                buffer_id: NO_BUFFER,
                in_port,
                data: frame.to_vec(),
            }
            .encode(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Connection, LearningSwitch};

    fn frame(dst: [u8; 6], src: [u8; 6]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&dst);
        f.extend_from_slice(&src);
        f.extend_from_slice(&[0x08, 0x00]);
        f.extend_from_slice(&[0u8; 46]);
        f
    }

    const MAC_A: [u8; 6] = [2, 0, 0, 0, 0, 0xA];
    const MAC_B: [u8; 6] = [2, 0, 0, 0, 0, 0xB];

    #[test]
    fn miss_punts_then_flow_mod_installs_fast_path() {
        let mut sw = OfSwitch::new(7, 4);
        // Miss.
        let fwd = sw.process_frame(1, &frame(MAC_B, MAC_A));
        let Forward::Punt(_) = fwd else {
            panic!("expected punt, got {fwd:?}");
        };
        // Controller installs a flow.
        let fm = OfMessage::FlowMod {
            xid: 1,
            mat: OfMatch {
                in_port: None,
                dl_src: None,
                dl_dst: Some(MAC_B),
                dl_type: None,
            },
            command: FlowModCommand::Add,
            priority: 10,
            idle_timeout: 0,
            actions: vec![OfAction::Output(3)],
        };
        sw.feed_control(&fm.encode()).unwrap();
        // Now the same frame hits the table.
        let fwd = sw.process_frame(1, &frame(MAC_B, MAC_A));
        assert_eq!(fwd, Forward::Ports(vec![3]));
        assert_eq!(sw.stats().table_hits, 1);
        assert_eq!(sw.stats().punts, 1);
        assert_eq!(sw.flows()[0].packets, 1);
    }

    #[test]
    fn priority_orders_overlapping_flows() {
        let mut sw = OfSwitch::new(1, 4);
        for (priority, port) in [(5u16, 1u16), (50, 2)] {
            let fm = OfMessage::FlowMod {
                xid: 0,
                mat: OfMatch::default(),
                command: FlowModCommand::Add,
                priority,
                idle_timeout: 0,
                actions: vec![OfAction::Output(port)],
            };
            sw.feed_control(&fm.encode()).unwrap();
        }
        assert_eq!(
            sw.process_frame(3, &frame(MAC_B, MAC_A)),
            Forward::Ports(vec![2]),
            "higher priority flow wins"
        );
    }

    #[test]
    fn packet_out_flood_expands_ports() {
        let mut sw = OfSwitch::new(1, 4);
        let po = OfMessage::PacketOut {
            xid: 0,
            buffer_id: NO_BUFFER,
            in_port: 2,
            actions: vec![OfAction::Output(PORT_FLOOD)],
            data: frame(MAC_B, MAC_A),
        };
        let (_, frames) = sw.feed_control(&po.encode()).unwrap();
        let ports: Vec<u16> = frames.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![1, 3, 4], "all except ingress 2");
    }

    #[test]
    fn switch_and_controller_converge_end_to_end() {
        // Wire an OfSwitch to a learning-switch controller in memory and
        // verify the second packet is handled without punting.
        let mut sw = OfSwitch::new(99, 4);
        let (mut ctrl, ctrl_hello) = Connection::open(LearningSwitch::new());
        // Channel bring-up (symmetric HELLOs + features).
        let (sw_out, _) = sw.feed_control(&ctrl_hello).unwrap();
        let sw_hello = sw.hello();
        let mut to_switch = ctrl.feed(&sw_hello).unwrap(); // features request
        let (reply, _) = sw.feed_control(&to_switch).unwrap();
        to_switch = ctrl.feed(&reply).unwrap();
        assert!(sw_out.is_empty());
        assert!(to_switch.is_empty());
        assert_eq!(ctrl.datapath_id(), Some(99));

        // a->b floods via controller.
        let Forward::Punt(pi) = sw.process_frame(1, &frame(MAC_B, MAC_A)) else {
            panic!("miss should punt");
        };
        let to_switch = ctrl.feed(&pi).unwrap();
        let (_, frames) = sw.feed_control(&to_switch).unwrap();
        assert_eq!(frames.len(), 3, "flooded to 3 other ports");

        // b->a: the controller installs a flow; replay a->b hits the table.
        let Forward::Punt(pi) = sw.process_frame(2, &frame(MAC_A, MAC_B)) else {
            panic!("second miss should punt");
        };
        let to_switch = ctrl.feed(&pi).unwrap();
        let (_, frames) = sw.feed_control(&to_switch).unwrap();
        assert_eq!(frames.len(), 1, "unicast to the learned port");
        assert_eq!(sw.flows().len(), 1);
        let fwd = sw.process_frame(2, &frame(MAC_A, MAC_B));
        assert_eq!(fwd, Forward::Ports(vec![1]), "fast path, no punt");
    }
}
