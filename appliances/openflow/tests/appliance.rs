//! End-to-end: an OpenFlow controller appliance controlling a switch
//! appliance over TCP through the simulated network.

use mirage_openflow::{Connection, Forward, LearningSwitch, OfSwitch};
use mirage_devices::netfront::CopyDiscipline;
use mirage_devices::Backend;
use mirage_devices::{DriverDomain, Xenstore};
use mirage_hypervisor::{Dur, Hypervisor, Time};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage_runtime::UnikernelGuest;

const CTRL_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 6);
const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);

#[test]
fn controller_appliance_controls_switch_over_tcp() {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    // Controller appliance.
    let (front_c, nh_c) =
        Backend::XenRing.net(xs.clone(), "ctrl", Mac::local(6).0, CopyDiscipline::ZeroCopy);
    let mut ctrl_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CTRL_IP));
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(6633).await.unwrap();
            let mut stream = listener.accept().await.unwrap();
            let (mut conn, hello) = Connection::open(LearningSwitch::new());
            stream.write(&hello);
            // Serve until the session has processed 2 packet-ins.
            while conn.stats().packet_ins < 2 {
                let Some(chunk) = stream.read().await else {
                    break;
                };
                let out = conn.feed(&chunk).expect("valid stream");
                if !out.is_empty() {
                    stream.write(&out);
                }
            }
            stream.close();
            stream.wait_closed().await;
            conn.stats().packet_ins as i64
        })
    });
    ctrl_guest.add_device(front_c);
    let cdom = hv.create_domain("controller", 32, Box::new(ctrl_guest));

    // Switch appliance: punts two frames, expects replies.
    let (front_s, nh_s) =
        Backend::XenRing.net(xs.clone(), "sw", Mac::local(7).0, CopyDiscipline::ZeroCopy);
    let mut sw_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(SW_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut stream = stack.tcp_connect(CTRL_IP, 6633).await.unwrap();
            let mut sw = OfSwitch::new(0xD0D0, 4);
            stream.write(&sw.hello());

            let mk_frame = |dst: u8, src: u8| {
                let mut f = vec![0x02, 0, 0, 0, 0, dst, 0x02, 0, 0, 0, 0, src, 0x08, 0x00];
                f.extend_from_slice(&[0u8; 46]);
                f
            };
            // Complete the handshake before punting anything: wait
            // until we have answered the FEATURES_REQUEST.
            let mut handshaken = false;
            while !handshaken {
                let Some(chunk) = stream.read().await else {
                    panic!("controller hung up during handshake");
                };
                let (replies, _) = sw.feed_control(&chunk).expect("valid control");
                if !replies.is_empty() {
                    stream.write(&replies);
                    handshaken = true;
                }
            }
            let mut punts = Vec::new();
            for (dst, src, port) in [(0xB, 0xA, 1u16), (0xA, 0xB, 2)] {
                if let Forward::Punt(pi) = sw.process_frame(port, &mk_frame(dst, src)) {
                    punts.push(pi);
                }
            }
            stream.write(&punts[0]);
            // Process control traffic until a flow lands.
            let mut emitted = 0usize;
            let mut sent_second = false;
            while sw.flows().is_empty() {
                let Some(chunk) = stream.read().await else {
                    break;
                };
                let (replies, frames) = sw.feed_control(&chunk).expect("valid control");
                emitted += frames.len();
                if !replies.is_empty() {
                    stream.write(&replies);
                }
                if !sent_second && emitted > 0 {
                    sent_second = true;
                    stream.write(&punts[1]);
                }
            }
            stream.close();
            stream.wait_closed().await;
            assert!(emitted >= 3, "flood + unicast packet-outs applied");
            sw.flows().len() as i64
        })
    });
    sw_guest.add_device(front_s);
    let sdom = hv.create_domain("switch", 32, Box::new(sw_guest));

    hv.run_until(Time::ZERO + Dur::secs(30));
    assert_eq!(hv.exit_code(sdom), Some(1), "one flow installed");
    assert_eq!(hv.exit_code(cdom), Some(2), "controller saw both punts");
}
