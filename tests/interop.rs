//! Interoperability scenarios from §2.3.2/§3.5.1: "existing non-OCaml code
//! can be encapsulated in separate VMs and communicated with via
//! message-passing" — vchan between a unikernel and a conventional-VM
//! model — plus dynamic (DHCP) boot and mixed net+block appliances.

use mirage::devices::netfront::CopyDiscipline;
use mirage::devices::{Backend, DriverDomain, VchanEndpoint, Xenstore};
use mirage::hypervisor::{Dur, Hypervisor, Time};
use mirage::net::{dhcp, Ipv4Addr, Mac, Stack, StackConfig};
use mirage::runtime::UnikernelGuest;
use mirage::storage::{BlkDevice, Fat32};

#[test]
fn vchan_bridges_a_unikernel_and_a_legacy_vm() {
    // The "legacy Linux VM" side runs the same upstream vchan protocol
    // (§3.5.1: "vchan is present in upstream Linux 3.3.0 onwards") but is
    // just another guest here: the protocol, not the OS, is the contract.
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();

    let (server_ep, mut legacy_handle) = VchanEndpoint::server(xs.clone(), "bridge");
    let mut legacy_vm = UnikernelGuest::new(move |_env, rt| {
        rt.spawn(async move {
            // Speak a trivial line protocol, as a Linux tool would.
            let mut buf = Vec::new();
            loop {
                let chunk = legacy_handle.rx.recv().await.expect("peer alive");
                buf.extend(chunk);
                if let Some(pos) = buf.iter().position(|b| *b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let mut reply = b"legacy-ack: ".to_vec();
                    reply.extend_from_slice(&line);
                    legacy_handle.tx.send(reply).unwrap();
                    return 0i64;
                }
            }
        })
    });
    legacy_vm.add_device(Box::new(server_ep));
    let ldom = hv.create_domain("legacy-linux", 256, Box::new(legacy_vm));

    let (client_ep, mut uni_handle) = VchanEndpoint::client(xs.clone(), "bridge");
    let mut unikernel = UnikernelGuest::new(move |_env, rt| {
        rt.spawn(async move {
            uni_handle.tx.send(b"hello legacy world\n".to_vec()).unwrap();
            let mut got = Vec::new();
            while !got.ends_with(b"hello legacy world\n") {
                got.extend(uni_handle.rx.recv().await.expect("reply"));
            }
            assert!(got.starts_with(b"legacy-ack: "));
            0i64
        })
    });
    unikernel.add_device(Box::new(client_ep));
    let udom = hv.create_domain("unikernel", 32, Box::new(unikernel));

    hv.run_until(Time::ZERO + Dur::secs(10));
    assert_eq!(hv.exit_code(ldom), Some(0));
    assert_eq!(hv.exit_code(udom), Some(0));
}

#[test]
fn dhcp_configured_appliance_serves_after_lease() {
    // §2.3.1: dynamic configuration keeps the image cloneable; the
    // appliance finds its address at boot and only then binds services.
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    // DHCP server appliance.
    let (front_s, nh_s) = Backend::XenRing.net(xs.clone(), "dhcpd", Mac::local(1).0, CopyDiscipline::ZeroCopy);
    let mut dhcpd = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(Ipv4Addr::new(10, 0, 0, 1)));
        rt.spawn(async move {
            let mut srv = dhcp::Server::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(255, 255, 255, 0),
                Some(Ipv4Addr::new(10, 0, 0, 1)),
                Ipv4Addr::new(10, 0, 0, 100),
                Ipv4Addr::new(10, 0, 0, 120),
            );
            let mut sock = stack.udp_bind(67).await.unwrap();
            loop {
                let Ok((_, _, data)) = sock.recv_from().await else {
                    return 0i64;
                };
                if let Some(reply) = srv.on_message(&data) {
                    sock.send_to(Ipv4Addr::BROADCAST, 68, reply);
                }
            }
        })
    });
    dhcpd.add_device(front_s);
    hv.create_domain("dhcpd", 32, Box::new(dhcpd));

    // Two cloned appliances boot with identical images and diverge only
    // in their dynamic leases.
    let mut clone_doms = Vec::new();
    for i in 0..2u32 {
        let (front, nh) = Backend::XenRing.net(
            xs.clone(),
            format!("clone{i}"),
            Mac::local(10 + i).0,
            CopyDiscipline::ZeroCopy,
        );
        let mut guest = UnikernelGuest::new(move |_env, rt| {
            let stack = Stack::spawn(rt, nh, StackConfig::dhcp());
            rt.spawn(async move {
                let ip = stack.wait_ready().await;
                // Return the last octet as the exit code for the harness.
                ip.octets()[3] as i64
            })
        });
        guest.add_device(front);
        clone_doms.push(hv.create_domain(format!("clone{i}"), 32, Box::new(guest)));
    }

    hv.run_until(Time::ZERO + Dur::secs(30));
    let leases: Vec<i64> = clone_doms
        .iter()
        .map(|d| hv.exit_code(*d).expect("leased"))
        .collect();
    assert_eq!(leases.len(), 2);
    assert!(leases.iter().all(|o| (100..=120).contains(o)), "{leases:?}");
    assert_ne!(leases[0], leases[1], "clones got distinct addresses");
}

#[test]
fn appliance_combines_network_and_storage_stacks() {
    // A file-server-shaped appliance: netfront + blkfront + FAT-32, with
    // the network side reading file content written through the
    // filesystem — both Table 1 stacks live in one image.
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    let (netf, nh) = Backend::XenRing.net(xs.clone(), "fs0", Mac::local(21).0, CopyDiscipline::ZeroCopy);
    let (blkf, bhandle) = Backend::XenRing.blk(xs.clone(), "vda", 1 << 16);
    let mut appliance = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh, StackConfig::static_ip(Ipv4Addr::new(10, 0, 0, 21)));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let dev = BlkDevice::new(&rt2, bhandle);
            let fs = Fat32::format(dev).await.unwrap();
            fs.write_file("motd.txt", b"files over fat32 over blkfront")
                .await
                .unwrap();
            // Serve the file over UDP on request.
            let mut sock = stack.udp_bind(6969).await.unwrap();
            let (src, sport, _req) = sock.recv_from().await.unwrap();
            let content = fs.read_file("motd.txt").await.unwrap();
            sock.send_to(src, sport, content);
            0i64
        })
    });
    appliance.add_device(netf);
    appliance.add_device(blkf);
    hv.create_domain("fileserver", 64, Box::new(appliance));

    let (front_c, nh_c) = Backend::XenRing.net(xs.clone(), "cli", Mac::local(22).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(Ipv4Addr::new(10, 0, 0, 22)));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(10)).await;
            let mut sock = stack.udp_bind(40001).await.unwrap();
            sock.send_to(Ipv4Addr::new(10, 0, 0, 21), 6969, b"get".to_vec());
            let (_, _, content) = sock.recv_from().await.unwrap();
            assert_eq!(content, b"files over fat32 over blkfront");
            0i64
        })
    });
    client.add_device(front_c);
    let cdom = hv.create_domain("client", 32, Box::new(client));

    hv.run_until(Time::ZERO + Dur::secs(30));
    assert_eq!(hv.exit_code(cdom), Some(0));
}
