//! Table 1's memcache facility, end to end: a memcache appliance serving
//! the text protocol over the live TCP stack, driven by a client guest.

use mirage::devices::netfront::CopyDiscipline;

use mirage::devices::Backend;
use mirage::devices::{DriverDomain, Xenstore};
use mirage::hypervisor::{Dur, Hypervisor, Time};
use mirage::net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage::runtime::UnikernelGuest;
use mirage::storage::{KvStore, MemcacheSession};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 11);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 12);

#[test]
fn memcache_appliance_serves_the_text_protocol() {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    let (front_s, nh_s) = Backend::XenRing.net(xs.clone(), "mc", Mac::local(11).0, CopyDiscipline::ZeroCopy);
    let mut server = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let store = KvStore::new();
            let mut listener = stack.tcp_listen(11211).await.unwrap();
            loop {
                let Ok(mut stream) = listener.accept().await else {
                    return 0i64;
                };
                let store = store.clone();
                rt2.spawn(async move {
                    let mut session = MemcacheSession::new(store);
                    while let Some(chunk) = stream.read().await {
                        let out = session.feed(&chunk);
                        if !out.is_empty() {
                            stream.write(&out);
                        }
                    }
                    stream.close();
                    stream.wait_closed().await;
                });
            }
        })
    });
    server.add_device(front_s);
    hv.create_domain("memcached", 32, Box::new(server));

    let (front_c, nh_c) = Backend::XenRing.net(xs.clone(), "mcc", Mac::local(12).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut stream = stack.tcp_connect(SERVER_IP, 11211).await.unwrap();
            // SET then GET then DELETE over the wire.
            stream.write(b"set motd 0 0 13\r\nhello mirage!\r\n");
            let mut buf = Vec::new();
            while !buf.ends_with(b"STORED\r\n") {
                buf.extend_from_slice(&stream.read().await.expect("server alive"));
            }
            stream.write(b"get motd\r\n");
            while !buf.ends_with(b"END\r\n") {
                buf.extend_from_slice(&stream.read().await.expect("server alive"));
            }
            let text = String::from_utf8_lossy(&buf);
            assert!(text.contains("VALUE motd 0 13"), "{text}");
            assert!(text.contains("hello mirage!"), "{text}");
            stream.write(b"delete motd\r\n");
            while !buf.ends_with(b"DELETED\r\n") {
                buf.extend_from_slice(&stream.read().await.expect("server alive"));
            }
            stream.close();
            stream.wait_closed().await;
            0
        })
    });
    client.add_device(front_c);
    let cdom = hv.create_domain("mc-client", 32, Box::new(client));

    hv.run_until(Time::ZERO + Dur::secs(30));
    assert_eq!(hv.exit_code(cdom), Some(0));
}
