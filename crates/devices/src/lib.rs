//! Type-safe Xen device drivers for mirage-rs (paper §3.4).
//!
//! "Mirage drivers interface to the device abstraction provided by Xen.
//! Xen devices consist of a frontend driver in the guest VM, and a backend
//! driver that multiplexes frontend requests, typically to a real physical
//! device." This crate provides both halves over the simulated substrate:
//!
//! * [`xenstore::Xenstore`] — the out-of-band store the halves handshake
//!   through (grant refs, event ports, connection states), with watches.
//! * `transport` — the one request/completion signature every device
//!   rides, with exactly two impls per half: the Xen descriptor ring
//!   (`mirage-ring`) and the virtio split virtqueue ([`virtio`]).
//! * [`netfront`] / [`netback::DriverDomain`] + [`switch`] — Ethernet:
//!   grant based zero-copy queues on the guest side, a learning switch
//!   plus bandwidth model in the driver domain.
//! * [`blk`] — block storage over the same abstraction ("Mirage block
//!   devices share the same Ring abstraction as network devices",
//!   §3.5.2), serviced against a [`blk::SimulatedDisk`] with a PCIe-SSD
//!   timing profile (Figure 9).
//! * [`driver::Backend`] — the factory: `Backend::{XenRing, Virtio}` is
//!   the only way to make a NIC or a disk.
//! * [`vchan::VchanEndpoint`] — the fast shared-memory inter-VM byte
//!   transport (§3.5.1).
//!
//! The [`netfront::CopyDiscipline`] knob adds a syscall + user/kernel copy
//! per packet on the identical data path. Only the `micro_zerocopy`
//! ablation sets it to `UserKernelCopy`; Figure 8's Linux endpoint is
//! priced per segment by `mirage_baseline::netperf::TcpEndpoint` in the
//! iperf harness (`mirage_bench::netsim`), not by this knob.

pub mod blk;
mod blkback;
pub mod driver;
pub mod netback;
pub mod netem;
pub mod netfront;
pub mod rss;
pub mod switch;
mod transport;
pub mod vchan;
pub mod virtio;
pub mod xenstore;

pub use blk::{BlkCompletion, BlkHandle, BlkOp, BlkRequest, DiskProfile, SimulatedDisk};
pub use driver::{Backend, BlkDriver, NetDriver};
pub use netback::{DriverDomain, DriverStats};
pub use netem::{DiskFaultPlan, Netem, NetemConfig, NetemStats};
pub use netfront::{CopyDiscipline, NetHandle};
pub use switch::{NetProfile, Tap};
pub use vchan::{VchanEndpoint, VchanHandle};
pub use xenstore::Xenstore;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blk::SECTOR_SIZE;
    use mirage_cstruct::PktBuf;
    use mirage_hypervisor::event::{EventError, Port};
    use mirage_hypervisor::{
        DomainEnv, DomainId, Dur, Guest, Hypervisor, RunOutcome, Step, Time, Wake,
    };
    use mirage_ring::ByteRing;
    use mirage_runtime::channel::{channel, Receiver};
    use mirage_runtime::UnikernelGuest;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Submits one request; its completion arrives on what this returns.
    fn submit(
        bh: &BlkHandle,
        op: BlkOp,
        sector: u64,
        data: Option<Vec<u8>>,
    ) -> Receiver<BlkCompletion> {
        let (reply, done) = channel();
        bh.submit
            .send(BlkRequest {
                op,
                sector,
                count: 8,
                data,
                reply,
            })
            .unwrap();
        done
    }

    fn eth_frame(dst: [u8; 6], src: [u8; 6], payload: &[u8]) -> Vec<u8> {
        let mut f = Vec::with_capacity(14 + payload.len());
        f.extend_from_slice(&dst);
        f.extend_from_slice(&src);
        f.extend_from_slice(&[0x08, 0x00]);
        f.extend_from_slice(payload);
        f
    }

    const MAC_A: [u8; 6] = [0x02, 0, 0, 0, 0, 0xAA];
    const MAC_B: [u8; 6] = [0x02, 0, 0, 0, 0, 0xBB];

    /// Guest A pings guest B through the switch and awaits the echo; A
    /// rides `backend_a`, B rides `backend_b`.
    fn ping_echo(backend_a: Backend, backend_b: Backend, payload: &'static [u8]) {
        let xs = Xenstore::new();
        let mut hv = Hypervisor::new();
        hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

        // Guest B: echo every frame back to its sender, then exit after one.
        let (front_b, mut nh_b) = backend_b.net(xs.clone(), "b", MAC_B, CopyDiscipline::ZeroCopy);
        let mut guest_b = UnikernelGuest::new(move |_env, rt| {
            rt.clone().spawn(async move {
                let frame = nh_b.rx.recv().await.expect("frame arrives");
                assert_eq!(&frame[0..6], &MAC_B, "addressed to us");
                let payload = frame[14..].to_vec();
                nh_b.tx.send(PktBuf::from_vec(eth_frame(MAC_A, MAC_B, &payload))).unwrap();
                payload.len() as i64
            })
        });
        guest_b.add_device(front_b);
        hv.create_domain("guest-b", 64, Box::new(guest_b));

        // Guest A: send to B (first frame floods; B's reply teaches the
        // switch), await echo.
        let (front_a, mut nh_a) = backend_a.net(xs.clone(), "a", MAC_A, CopyDiscipline::ZeroCopy);
        let mut guest_a = UnikernelGuest::new(move |_env, rt| {
            rt.clone().spawn(async move {
                nh_a.tx.send(PktBuf::from_vec(eth_frame(MAC_B, MAC_A, payload))).unwrap();
                let echo = nh_a.rx.recv().await.expect("echo arrives");
                assert_eq!(&echo[14..], payload);
                0
            })
        });
        guest_a.add_device(front_a);
        let dom_a = hv.create_domain("guest-a", 64, Box::new(guest_a));

        let outcome = hv.run_until(Time::ZERO + Dur::secs(5));
        assert_eq!(outcome, RunOutcome::Idle, "dom0 keeps listening");
        assert_eq!(hv.exit_code(dom_a), Some(0), "[{backend_a}->{backend_b}] A saw its echo");
    }

    #[test]
    fn two_guests_exchange_frames_through_the_switch() {
        for backend in Backend::ALL {
            ping_echo(backend, backend, b"ping!");
        }
    }

    #[test]
    fn mixed_backends_interoperate_on_one_switch() {
        // A Xen-ring guest and a virtio guest share the learning switch:
        // the MAC table addresses ports of either family.
        ping_echo(Backend::XenRing, Backend::Virtio, b"cross-abi");
    }

    #[test]
    fn tap_can_talk_to_a_guest() {
        let xs = Xenstore::new();
        let mut hv = Hypervisor::new();
        let tap = Tap::new([0x02, 0, 0, 0, 0, 0x01]);
        let mut dom0 = DriverDomain::new(xs.clone());
        dom0.add_tap(tap.clone());
        let d0 = hv.create_domain("dom0", 512, Box::new(dom0));

        let (front, mut nh) = Backend::XenRing.net(xs.clone(), "g", MAC_A, CopyDiscipline::ZeroCopy);
        let mut guest = UnikernelGuest::new(move |_env, rt| {
            rt.clone().spawn(async move {
                let frame = nh.rx.recv().await.expect("frame from tap");
                let mut reply = eth_frame(
                    frame[6..12].try_into().unwrap(),
                    MAC_A,
                    b"hello tap",
                );
                reply[12..14].copy_from_slice(&frame[12..14]);
                nh.tx.send(PktBuf::from_vec(reply)).unwrap();
                0
            })
        });
        guest.add_device(front);
        let gdom = hv.create_domain("guest", 64, Box::new(guest));

        // Let everything connect.
        hv.run_until(Time::ZERO + Dur::millis(100));
        tap.inject(eth_frame(MAC_A, tap.mac(), b"probe"));
        hv.wake_external(d0);
        hv.run_until(Time::ZERO + Dur::secs(1));
        assert_eq!(hv.exit_code(gdom), Some(0));
        let frames = tap.harvest();
        assert_eq!(frames.len(), 1);
        assert_eq!(&frames[0][14..], b"hello tap");
    }

    #[test]
    fn blk_write_then_read_round_trips_with_latency() {
        for backend in Backend::ALL {
            let xs = Xenstore::new();
            let mut hv = Hypervisor::new();
            hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

            let (front, bh) = backend.blk(xs.clone(), "vda", 1 << 20);
            let mut guest = UnikernelGuest::new(move |_env, rt| {
                rt.clone().spawn(async move {
                    let payload = vec![0x5A; 4096];
                    let mut write = submit(&bh, BlkOp::Write, 64, Some(payload.clone()));
                    assert!(write.recv().await.unwrap().ok);
                    let read = submit(&bh, BlkOp::Read, 64, None).recv().await.unwrap();
                    assert!(read.ok);
                    assert_eq!(read.data.as_deref(), Some(payload.as_slice()));
                    0
                })
            });
            guest.add_device(front);
            let gdom = hv.create_domain("guest", 64, Box::new(guest));
            hv.run_until(Time::ZERO + Dur::secs(5));
            assert_eq!(hv.exit_code(gdom), Some(0), "[{backend}]");
            // Two requests through an 18 us device: virtual time reflects it.
            assert!(hv.now() >= Time::ZERO + Dur::micros(36), "[{backend}] disk latency charged");
        }
    }

    #[test]
    fn blk_out_of_range_request_fails_cleanly() {
        for backend in Backend::ALL {
            let xs = Xenstore::new();
            let mut hv = Hypervisor::new();
            hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));
            let (front, bh) = backend.blk(xs.clone(), "vda", 100);
            let mut guest = UnikernelGuest::new(move |_env, rt| {
                rt.clone().spawn(async move {
                    let done = submit(&bh, BlkOp::Read, 99, None).recv().await.unwrap();
                    assert!(!done.ok, "read past end must fail");
                    0
                })
            });
            guest.add_device(front);
            let gdom = hv.create_domain("guest", 64, Box::new(guest));
            hv.run_until(Time::ZERO + Dur::secs(5));
            assert_eq!(hv.exit_code(gdom), Some(0), "[{backend}]");
        }
    }

    #[test]
    fn blk_write_with_a_short_payload_is_refused_and_writes_nothing() {
        for backend in Backend::ALL {
            let xs = Xenstore::new();
            let mut hv = Hypervisor::new();
            hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));
            let (front, bh) = backend.blk(xs.clone(), "vda", 1024);
            let mut guest = UnikernelGuest::new(move |_env, rt| {
                rt.clone().spawn(async move {
                    // The I/O page this leaves 0x5A in is the next request's.
                    let mut write = submit(&bh, BlkOp::Write, 100, Some(vec![0x5A; 8 * SECTOR_SIZE]));
                    assert!(write.recv().await.unwrap().ok);
                    for data in [Some(vec![0x11; SECTOR_SIZE]), None] {
                        let done = submit(&bh, BlkOp::Write, 200, data).recv().await.unwrap();
                        assert!(!done.ok, "one sector's bytes for eight");
                    }
                    let done = submit(&bh, BlkOp::Read, 200, None).recv().await.unwrap();
                    assert_eq!(done.data, Some(vec![0; 8 * SECTOR_SIZE]), "nothing was written");
                    0
                })
            });
            guest.add_device(front);
            let gdom = hv.create_domain("guest", 64, Box::new(guest));
            hv.run_until(Time::ZERO + Dur::secs(5));
            assert_eq!(hv.exit_code(gdom), Some(0), "[{backend}]");
        }
    }

    #[test]
    fn vchan_streams_bytes_between_guests() {
        let xs = Xenstore::new();
        let mut hv = Hypervisor::new();

        let (server_ep, mut sh) = VchanEndpoint::server(xs.clone(), "chat");
        let mut server = UnikernelGuest::new(move |_env, rt| {
            rt.clone().spawn(async move {
                let mut got = Vec::new();
                while got.len() < 11 {
                    got.extend(sh.rx.recv().await.expect("bytes"));
                }
                assert_eq!(&got, b"hello vchan");
                sh.tx.send(b"ack".to_vec()).unwrap();
                0
            })
        });
        server.add_device(Box::new(server_ep));
        let sdom = hv.create_domain("server", 64, Box::new(server));

        let (client_ep, mut ch) = VchanEndpoint::client(xs.clone(), "chat");
        let mut client = UnikernelGuest::new(move |_env, rt| {
            rt.clone().spawn(async move {
                ch.tx.send(b"hello vchan".to_vec()).unwrap();
                let mut got = Vec::new();
                while got.len() < 3 {
                    got.extend(ch.rx.recv().await.expect("ack"));
                }
                assert_eq!(&got, b"ack");
                0
            })
        });
        client.add_device(Box::new(client_ep));
        let cdom = hv.create_domain("client", 64, Box::new(client));

        hv.run_until(Time::ZERO + Dur::secs(5));
        assert_eq!(hv.exit_code(sdom), Some(0));
        assert_eq!(hv.exit_code(cdom), Some(0));
    }

    /// The port a lying server publishes, given the client's domain.
    type Lie = fn(&mut DomainEnv<'_>, DomainId) -> Port;

    /// When a lying peer notifies the port it published: well after the
    /// handshake, while the other side still runs.
    const NOTIFY_AT: Time = Time::from_nanos(10_000_000);

    /// A vchan server that lies to the client: it publishes an event port
    /// it did not allocate for it, or (with `bogus_ring`) a real port and
    /// a ring grant it never issued. At [`NOTIFY_AT`] it notifies the port
    /// it published and keeps what the notify returned.
    struct LyingVchanServer {
        xs: Xenstore,
        lie: Lie,
        bogus_ring: bool,
        port: Option<Port>,
        notified: Rc<Cell<Option<Result<(), EventError>>>>,
    }

    impl Guest for LyingVchanServer {
        fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
            self.xs.register_watcher(env.domid());
            let client = self.xs.read_host("vchan/chat/client-domid");
            if let (None, Some(client)) = (self.port, client.and_then(|s| s.parse().ok())) {
                let client = DomainId(client);
                for (leaf, region) in [
                    ("s2c-ring", ByteRing::allocate(vchan::VCHAN_PAGES).1),
                    ("c2s-ring", ByteRing::allocate(vchan::VCHAN_PAGES).1),
                ] {
                    let gref = env.grant(client, region, true);
                    let gref = if self.bogus_ring { 999 } else { gref.0 };
                    self.xs
                        .write(env, &format!("vchan/chat/{leaf}"), &gref.to_string());
                }
                let port = (self.lie)(env, client);
                self.xs
                    .write(env, "vchan/chat/event-port", &port.0.to_string());
                self.xs
                    .write(env, "vchan/chat/server-domid", &env.domid().0.to_string());
                self.port = Some(port);
            }
            match self.port {
                Some(port) if env.now() >= NOTIFY_AT => {
                    self.notified.set(Some(env.evtchn_notify(port)));
                    Step::Yield(Wake::never())
                }
                _ => Step::Yield(Wake::at(NOTIFY_AT)),
            }
        }
    }

    /// A port the server did not allocate for this client — none at all,
    /// or one another domain may bind — leaves the client unconnected
    /// instead of panicking it. So does a real port beside ring grants the
    /// server never issued: the client has bound the port by then and
    /// closes it again, so the server's notifications reach nobody and
    /// every retry is refused.
    #[test]
    fn a_vchan_port_the_server_did_not_allocate_leaves_the_client_unconnected() {
        let lies: [(Lie, bool, EventError); 3] = [
            (|_, _| Port(999), false, EventError::BadPort),
            (
                |env, _| env.evtchn_alloc_unbound(DomainId(77)),
                false,
                EventError::Unbound,
            ),
            (
                |env, client| env.evtchn_alloc_unbound(client),
                true,
                EventError::Closed,
            ),
        ];
        for (lie, bogus_ring, refused) in lies {
            let xs = Xenstore::new();
            let mut hv = Hypervisor::new();
            let notified = Rc::new(Cell::new(None));
            let server = LyingVchanServer {
                xs: xs.clone(),
                lie,
                bogus_ring,
                port: None,
                notified: Rc::clone(&notified),
            };
            hv.create_domain("server", 64, Box::new(server));
            let (client_ep, _ch) = VchanEndpoint::client(xs.clone(), "chat");
            let mut client =
                UnikernelGuest::new(|_env, rt| rt.spawn(std::future::pending::<i64>()));
            client.add_device(Box::new(client_ep));
            let cdom = hv.create_domain("client", 64, Box::new(client));
            hv.run_until(Time::ZERO + Dur::secs(1));
            assert!(
                xs.read_host("vchan/chat/event-port").is_some(),
                "the lie was told"
            );
            assert_eq!(xs.read_host("vchan/chat/state"), None);
            assert_eq!(hv.exit_code(cdom), None, "the client is still running");
            assert_eq!(
                notified.get(),
                Some(Err(refused)),
                "the lie's port reaches nobody"
            );
        }
    }

    #[test]
    fn wire_time_is_charged_for_switched_frames() {
        // A 1 Gb/s link: 1500 bytes take 12 us of wire time in dom0.
        let xs = Xenstore::new();
        let mut hv = Hypervisor::new();
        hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));
        let (front, nh) = Backend::XenRing.net(xs.clone(), "g", MAC_A, CopyDiscipline::ZeroCopy);
        let mut guest = UnikernelGuest::new(move |_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                for _ in 0..100 {
                    nh.tx.send(PktBuf::from_vec(eth_frame(MAC_B, MAC_A, &[0u8; 1486]))).unwrap();
                }
                // Stay alive until the driver drains the backlog.
                while nh.stats().tx_frames < 100 {
                    rt2.sleep(Dur::micros(50)).await;
                }
                0
            })
        });
        guest.add_device(front);
        hv.create_domain("guest", 64, Box::new(guest));
        hv.run_until(Time::ZERO + Dur::secs(5));
        // 100 x 1500B at 1 Gb/s = 1.2 ms of wire time minimum.
        assert!(hv.now() >= Time::ZERO + Dur::micros(1200));
    }
}
