//! The §4.3 OpenFlow pair: a controller appliance running the learning
//! switch application, and a datapath appliance punting misses to it over
//! a real TCP control channel — then forwarding on its own fast path.
//!
//! ```text
//! cargo run -p openflow_appliance
//! ```

use mirage_devices::netfront::CopyDiscipline;

use mirage_devices::Backend;
use mirage_devices::{DriverDomain, Xenstore};
use mirage_hypervisor::{Dur, Hypervisor, Time};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage_openflow::{Connection, Forward, LearningSwitch, OfSwitch};
use mirage_runtime::UnikernelGuest;

const CTRL_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 6);
const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);

fn eth(dst: u8, src: u8) -> Vec<u8> {
    let mut f = vec![0x02, 0, 0, 0, 0, dst, 0x02, 0, 0, 0, 0, src, 0x08, 0x00];
    f.extend_from_slice(&[0u8; 46]);
    f
}

fn main() {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    // Controller appliance.
    let (front_c, nh_c) = Backend::XenRing.net(xs.clone(), "ctrl", Mac::local(6).0, CopyDiscipline::ZeroCopy);
    let mut ctrl = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CTRL_IP));
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(6633).await.unwrap();
            let mut stream = listener.accept().await.unwrap();
            let (mut session, hello) = Connection::open(LearningSwitch::new());
            stream.write(&hello);
            while session.stats().packet_ins < 2 {
                let Some(chunk) = stream.read().await else { break };
                let out = session.feed(&chunk).expect("valid control stream");
                if !out.is_empty() {
                    stream.write(&out);
                }
            }
            println!(
                "[controller] dpid={:?}: {} packet-ins, {} flows installed, {} floods",
                session.datapath_id(),
                session.stats().packet_ins,
                session.app().flows_installed,
                session.app().floods
            );
            stream.close();
            stream.wait_closed().await;
            0i64
        })
    });
    ctrl.add_device(front_c);
    hv.create_domain("controller", 32, Box::new(ctrl));

    // Datapath appliance.
    let (front_s, nh_s) = Backend::XenRing.net(xs.clone(), "dp", Mac::local(7).0, CopyDiscipline::ZeroCopy);
    let mut dp = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(SW_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut stream = stack.tcp_connect(CTRL_IP, 6633).await.unwrap();
            let mut sw = OfSwitch::new(0xD0D0, 4);
            stream.write(&sw.hello());
            // Handshake first.
            let mut handshaken = false;
            while !handshaken {
                let chunk = stream.read().await.expect("controller alive");
                let (replies, _) = sw.feed_control(&chunk).unwrap();
                if !replies.is_empty() {
                    stream.write(&replies);
                    handshaken = true;
                }
            }
            println!("[datapath] handshake complete");

            // host A (port 1) talks to host B (port 2): first two frames
            // miss and punt; the controller learns and installs a flow.
            let mut punts = Vec::new();
            for (dst, src, port) in [(0xB, 0xA, 1u16), (0xA, 0xB, 2)] {
                match sw.process_frame(port, &eth(dst, src)) {
                    Forward::Punt(pi) => punts.push(pi),
                    other => println!("[datapath] unexpected {other:?}"),
                }
            }
            stream.write(&punts[0]);
            let mut sent_second = false;
            let mut emitted = 0usize;
            while sw.flows().is_empty() {
                let Some(chunk) = stream.read().await else { break };
                let (replies, frames) = sw.feed_control(&chunk).unwrap();
                emitted += frames.len();
                if !replies.is_empty() {
                    stream.write(&replies);
                }
                if !sent_second && emitted > 0 {
                    sent_second = true;
                    stream.write(&punts[1]);
                }
            }
            println!(
                "[datapath] {} packet-outs applied, {} flow(s) in the table",
                emitted,
                sw.flows().len()
            );
            // Fast path: the same frame now forwards without the controller.
            let fwd = sw.process_frame(2, &eth(0xA, 0xB));
            println!("[datapath] fast-path forward: {fwd:?}");
            println!(
                "[datapath] stats: {} table hits, {} punts",
                sw.stats().table_hits,
                sw.stats().punts
            );
            stream.close();
            stream.wait_closed().await;
            0i64
        })
    });
    dp.add_device(front_s);
    let ddom = hv.create_domain("datapath", 32, Box::new(dp));

    hv.run_until(Time::ZERO + Dur::secs(10));
    assert_eq!(hv.exit_code(ddom), Some(0));
    println!("[world] done at {}", hv.now());
}
