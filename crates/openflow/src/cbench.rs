//! A cbench-style controller workload generator (paper §4.3).
//!
//! "For the controller benchmark we use cbench to emulate 16 switches
//! concurrently connected to the controller, each serving 100 distinct MAC
//! addresses … two scenarios: batch, where each switch maintains a full
//! 64 kB buffer of outgoing packet-in messages; and single, where only one
//! packet-in message is in flight from each switch."

use crate::controller::{Connection, ControllerApp};
use crate::wire::{OfMessage, NO_BUFFER};

/// The cbench load mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CbenchMode {
    /// Keep a full 64 kB buffer of packet-ins outstanding per switch
    /// ("absolute throughput when servicing requests").
    Batch,
    /// One packet-in in flight per switch ("throughput … when serving
    /// connected switches fairly").
    Single,
}

/// Result of one cbench run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbenchReport {
    /// packet-in messages answered.
    pub responses: u64,
    /// packet-in messages generated.
    pub requests: u64,
    /// Per-switch response counts (fairness analysis): min and max.
    pub fairness_min: u64,
    /// See `fairness_min`.
    pub fairness_max: u64,
}

/// Emulated-switch state inside the generator.
struct FakeSwitch {
    conn_buf: Vec<u8>,
    mac_cursor: u32,
    responses: u64,
}

/// The cbench harness: drives a [`ControllerApp`] through real sessions
/// with `switches` emulated datapaths, `macs_per_switch` distinct source
/// addresses each.
pub struct Cbench {
    switches: usize,
    macs_per_switch: u32,
    mode: CbenchMode,
}

/// Batch-mode outstanding window per switch (≈ 64 kB of packet-ins).
const BATCH_WINDOW: usize = 64 * 1024 / 86; // ~60-byte frame + headers

impl Cbench {
    /// Custom configuration.
    pub fn new(switches: usize, macs_per_switch: u32, mode: CbenchMode) -> Cbench {
        Cbench {
            switches,
            macs_per_switch,
            mode,
        }
    }

    fn packet_in(xid: u32, switch: usize, mac_idx: u32) -> Vec<u8> {
        let mut frame = Vec::with_capacity(60);
        // Destination: another MAC on the same switch (sometimes known).
        let dst_idx = mac_idx.wrapping_add(1);
        frame.extend_from_slice(&[0x02, switch as u8, 0, 0, (dst_idx >> 8) as u8, dst_idx as u8]);
        frame.extend_from_slice(&[0x02, switch as u8, 0, 0, (mac_idx >> 8) as u8, mac_idx as u8]);
        frame.extend_from_slice(&[0x08, 0x00]);
        frame.extend_from_slice(&[0u8; 46]);
        OfMessage::PacketIn {
            xid,
            buffer_id: NO_BUFFER,
            in_port: (mac_idx % 4 + 1) as u16,
            data: frame,
        }
        .encode()
    }

    /// Runs `rounds` of the workload against `make_app`'s controller; each
    /// switch gets its own session (as cbench opens one TCP connection per
    /// emulated switch). Returns the aggregate report.
    pub fn run<A: ControllerApp>(
        &self,
        rounds: usize,
        mut make_app: impl FnMut() -> A,
    ) -> CbenchReport {
        let mut conns: Vec<(Connection<A>, FakeSwitch)> = (0..self.switches)
            .map(|i| {
                let (mut conn, _hello) = Connection::open(make_app());
                // Handshake.
                let out = conn
                    .feed(&OfMessage::Hello { xid: 0 }.encode())
                    .expect("hello");
                let (features_req, _) = OfMessage::parse(&out).expect("features request");
                conn.feed(
                    &OfMessage::FeaturesReply {
                        xid: features_req.xid(),
                        datapath_id: i as u64 + 1,
                        n_ports: 4,
                    }
                    .encode(),
                )
                .expect("features reply");
                (
                    conn,
                    FakeSwitch {
                        conn_buf: Vec::new(),
                        mac_cursor: 0,
                        responses: 0,
                    },
                )
            })
            .collect();

        let mut xid = 100u32;
        let mut requests = 0u64;
        for _ in 0..rounds {
            for (si, (conn, fake)) in conns.iter_mut().enumerate() {
                let window = match self.mode {
                    CbenchMode::Batch => BATCH_WINDOW,
                    CbenchMode::Single => 1,
                };
                fake.conn_buf.clear();
                for _ in 0..window {
                    let mac = fake.mac_cursor % self.macs_per_switch;
                    fake.mac_cursor = fake.mac_cursor.wrapping_add(1);
                    fake.conn_buf.extend(Self::packet_in(xid, si, mac));
                    xid = xid.wrapping_add(1);
                    requests += 1;
                }
                let replies = conn.feed(&fake.conn_buf).expect("well-formed stream");
                // Count response *messages* (cbench counts per packet-in
                // answered; a flow-mod + packet-out pair counts once).
                fake.responses += count_packet_outs(&replies);
            }
        }
        let responses: u64 = conns.iter().map(|(_, f)| f.responses).sum();
        let fairness_min = conns.iter().map(|(_, f)| f.responses).min().unwrap_or(0);
        let fairness_max = conns.iter().map(|(_, f)| f.responses).max().unwrap_or(0);
        CbenchReport {
            responses,
            requests,
            fairness_min,
            fairness_max,
        }
    }
}

fn count_packet_outs(mut data: &[u8]) -> u64 {
    let mut count = 0;
    while let Ok((msg, used)) = OfMessage::parse(data) {
        if matches!(msg, OfMessage::PacketOut { .. }) {
            count += 1;
        }
        data = &data[used..];
        if data.is_empty() {
            break;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::LearningSwitch;

    #[test]
    fn single_mode_answers_every_request() {
        let bench = Cbench::new(4, 10, CbenchMode::Single);
        let report = bench.run(25, LearningSwitch::new);
        assert_eq!(report.requests, 4 * 25);
        assert_eq!(report.responses, report.requests, "every packet-in answered");
        assert_eq!(
            report.fairness_min, report.fairness_max,
            "single mode is perfectly fair"
        );
    }

    #[test]
    fn batch_mode_generates_the_64kb_window() {
        let bench = Cbench::new(2, 100, CbenchMode::Batch);
        let report = bench.run(1, LearningSwitch::new);
        assert_eq!(report.requests, 2 * BATCH_WINDOW as u64);
        assert_eq!(report.responses, report.requests);
    }

    #[test]
    fn paper_config_matches_the_described_topology() {
        // The paper's configuration: 16 switches × 100 MACs.
        let bench = Cbench::new(16, 100, CbenchMode::Single);
        let report = bench.run(2, LearningSwitch::new);
        assert_eq!(report.requests, 16 * 2);
    }
}
