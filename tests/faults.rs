//! Failure injection across crate boundaries: torn writes under the
//! B-tree, corrupted superblocks under FAT-32, grant-table misuse, and a
//! hostile packet flood against a live appliance.

use mirage::devices::netfront::CopyDiscipline;

use mirage::devices::Backend;
use mirage::devices::{DriverDomain, Tap, Xenstore};
use mirage::hypervisor::grant::{GrantError, GrantTable, SharedPage};
use mirage::hypervisor::{DomainId, Dur, Hypervisor, Time};
use mirage::net::{ethernet, ipv4, udp, Ipv4Addr, Mac, Stack, StackConfig};
use mirage::runtime::UnikernelGuest;
use mirage::storage::{AppendLog, BlockLog, Fat32, FatError, MemDisk, Tree};

fn drive<F, Fut>(f: F)
where
    F: FnOnce() -> Fut + Send + 'static,
    Fut: std::future::Future<Output = i64> + Send + 'static,
{
    let guest = UnikernelGuest::new(move |_env, rt| rt.spawn(f()));
    let mut hv = Hypervisor::new();
    let dom = hv.create_domain("fault", 64, Box::new(guest));
    hv.run();
    assert_eq!(hv.exit_code(dom), Some(0));
}

#[test]
fn btree_on_block_device_recovers_from_torn_tail() {
    drive(|| async {
        let disk = MemDisk::new(4096);
        let log = BlockLog::new(disk.clone(), 0);
        let tree = Tree::new(log.clone());
        for i in 0..40u32 {
            tree.set(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .await
                .unwrap();
        }
        let committed_len = log.tail();
        tree.set(b"torn-victim", b"never-committed").await.unwrap();

        // Crash: the tail record only partially reached the disk.
        log.truncate(committed_len + 11);
        let recovered = Tree::recover(BlockLog::new(disk, committed_len + 11))
            .await
            .unwrap();
        assert_eq!(
            recovered.get(b"k39").await.unwrap(),
            Some(b"v39".to_vec()),
            "all committed keys survive"
        );
        assert_eq!(
            recovered.get(b"torn-victim").await.unwrap(),
            None,
            "the torn mutation rolled back"
        );
        // And the recovered tree accepts new writes.
        recovered.set(b"after-crash", b"ok").await.unwrap();
        assert_eq!(
            recovered.get(b"after-crash").await.unwrap(),
            Some(b"ok".to_vec())
        );
        0
    });
}

#[test]
fn fat32_detects_corrupted_superblocks() {
    drive(|| async {
        let disk = MemDisk::new(4096);
        {
            let fs = Fat32::format(disk.clone()).await.unwrap();
            fs.write_file("data.bin", &[7u8; 5000]).await.unwrap();
        }
        // Corrupt the boot-sector signature.
        disk.patch(510, &[0x00, 0x00]);
        assert_eq!(Fat32::mount(disk).await.err(), Some(FatError::Corrupt));
        0
    });
}

#[test]
fn grant_misuse_is_rejected_at_every_step() {
    let mut gt = GrantTable::new();
    let owner = DomainId(1);
    let peer = DomainId(2);
    let stranger = DomainId(3);
    let page = SharedPage::new();
    let gref = gt.grant(owner, peer, page, false);

    // Stranger cannot map, peer cannot write-map a read-only grant.
    assert_eq!(gt.map(stranger, gref, false).err(), Some(GrantError::NotGrantee));
    assert_eq!(gt.map(peer, gref, true).err(), Some(GrantError::ReadOnly));
    // Peer maps legitimately; owner cannot revoke mid-flight (XSA-39).
    gt.map(peer, gref, false).unwrap();
    assert_eq!(gt.revoke(owner, gref), Err(GrantError::StillMapped));
    assert_eq!(gt.revoke(peer, gref), Err(GrantError::NotOwner));
    gt.unmap(peer, gref).unwrap();
    gt.revoke(owner, gref).unwrap();
    assert_eq!(gt.map(peer, gref, false).err(), Some(GrantError::Revoked));
}

#[test]
fn appliance_survives_garbage_frame_flood() {
    // Blast a live stack with malformed Ethernet/IP frames between valid
    // traffic; the appliance must keep answering (the §4.2 type-safety
    // argument made kinetic).
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    let tap = Tap::new(Mac::local(0xEE).0);
    let mut dom0 = DriverDomain::new(xs.clone());
    dom0.add_tap(tap.clone());
    let d0 = hv.create_domain("dom0", 512, Box::new(dom0));

    let (front, nh) = Backend::XenRing.net(xs.clone(), "t", Mac::local(5).0, CopyDiscipline::ZeroCopy);
    let mut guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh, StackConfig::static_ip(Ipv4Addr::new(10, 0, 0, 5)));
        rt.spawn(async move {
            let mut sock = stack.udp_bind(7777).await.unwrap();
            let mut echoed = 0i64;
            while echoed < 3 {
                let Ok((src, sport, data)) = sock.recv_from().await else {
                    break;
                };
                sock.send_to(src, sport, data);
                echoed += 1;
            }
            echoed
        })
    });
    guest.add_device(front);
    let gdom = hv.create_domain("target", 32, Box::new(guest));
    hv.run_until(Time::ZERO + Dur::millis(50));

    // Teach the target our MAC.
    let arp = mirage::net::arp::ArpPacket {
        op: mirage::net::arp::ArpOp::Request,
        sha: Mac(tap.mac()),
        spa: Ipv4Addr::new(10, 0, 0, 200),
        tha: Mac::ZERO,
        tpa: Ipv4Addr::new(10, 0, 0, 5),
    };
    let mut frame = vec![0; ethernet::HEADER_LEN + mirage::net::arp::ARP_LEN];
    ethernet::write_header(
        &mut frame,
        Mac::BROADCAST,
        Mac(tap.mac()),
        ethernet::EtherType::Arp,
    );
    arp.write(&mut frame[ethernet::HEADER_LEN..]);
    tap.inject(frame);
    hv.wake_external(d0);
    hv.run_for(Dur::millis(10));
    let _ = tap.harvest();

    let mut replies = 0;
    for round in 0..3 {
        // 50 garbage frames...
        for i in 0..50usize {
            let mut junk = vec![0u8; 14 + (i * 13) % 600];
            junk[0..6].copy_from_slice(Mac::local(5).as_bytes());
            junk[6..12].copy_from_slice(&tap.mac());
            junk[12] = (i % 255) as u8;
            junk[13] = (i % 7) as u8;
            for (j, b) in junk.iter_mut().enumerate().skip(14) {
                *b = (j as u8).wrapping_mul(31).wrapping_add(round);
            }
            tap.inject(junk);
        }
        // ...then one valid UDP datagram.
        let payload = format!("probe-{round}");
        let (src, dst) = (Ipv4Addr::new(10, 0, 0, 200), Ipv4Addr::new(10, 0, 0, 5));
        let len = udp::HEADER_LEN + payload.len();
        let mut frame = vec![0; ethernet::HEADER_LEN + ipv4::HEADER_LEN + len];
        let (eth, ip) = frame.split_at_mut(ethernet::HEADER_LEN);
        ethernet::write_header(
            eth,
            Mac::local(5),
            Mac(tap.mac()),
            ethernet::EtherType::Ipv4,
        );
        let (ip, dgram) = ip.split_at_mut(ipv4::HEADER_LEN);
        ipv4::write_header(ip, src, dst, ipv4::protocol::UDP, round as u16, len);
        udp::write(dgram, src, 9000, dst, 7777, payload.as_bytes());
        tap.inject(frame);
        hv.wake_external(d0);
        hv.run_for(Dur::millis(20));
        for frame in tap.harvest() {
            if frame.len() > 42 && frame[12..14] == [0x08, 0x00] {
                replies += 1;
            }
        }
    }
    assert_eq!(replies, 3, "echoes survived the garbage flood");
    assert_eq!(hv.exit_code(gdom), Some(3));
}
