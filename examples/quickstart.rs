//! Quickstart: build a unikernel appliance from libraries, boot it on the
//! simulated hypervisor, and watch it seal itself, bring up a NIC over the
//! backend of your choice, and run.
//!
//! ```text
//! cargo run --example quickstart                        # Xen-style rings
//! MIRAGE_BACKEND=virtio cargo run --example quickstart  # split virtqueues
//! ```

use mirage::core::{Appliance, Library};
use mirage::cstruct::PktBuf;
use mirage::devices::netfront::CopyDiscipline;
use mirage::devices::{Backend, DriverDomain, Tap, Xenstore};
use mirage::hypervisor::{Dur, Hypervisor};

fn main() {
    // 1. Configuration is code: pick libraries, bake static config, leave
    //    instance identity dynamic (paper §2.1).
    let appliance = Appliance::builder("hello-unikernel")
        .library(Library::APP_HTTP)
        .library(Library::NET_DHCP)
        .static_config("banner", "hello from a unikernel")
        .dynamic_config("ip")
        .build()
        .expect("the library closure resolves");

    println!("appliance      : {}", appliance.name());
    println!(
        "image size     : {} kB (modelled: the boot model's input)",
        appliance.image().size_bytes() / 1000
    );
    println!(
        "libraries      : {}",
        appliance
            .link_set()
            .libraries()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "cloneable image: {} (a static banner is baked in)",
        appliance.image().is_cloneable()
    );

    // 2. Pick a device backend — one flag swaps the whole transport
    //    (MIRAGE_BACKEND=xen|virtio, Xen-style rings by default).
    let backend = Backend::from_env();
    println!("net backend    : {backend}");

    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    let tap = Tap::new([0x02, 0, 0, 0, 0, 0x01]);
    let mut dom0 = DriverDomain::new(xs.clone());
    dom0.add_tap(tap.clone());
    hv.create_domain("dom0", 512, Box::new(dom0));

    let mac = [0x02, 0, 0, 0, 0, 0x42];
    let (nic, nh) = backend.net(xs.clone(), "eth0", mac, CopyDiscipline::ZeroCopy);

    // 3. Boot it: the guest installs the Figure 2 memory layout, seals its
    //    page tables (§2.3.3), then runs its main lightweight thread —
    //    which announces itself on the wire through the chosen transport.
    let mut guest = appliance.into_guest(32, move |env, rt| {
        assert!(env.is_sealed(), "W^X page tables are frozen before main");
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(3)).await;
            let mut frame = Vec::new();
            frame.extend_from_slice(&[0xFF; 6]); // broadcast
            frame.extend_from_slice(&mac);
            frame.extend_from_slice(&[0x08, 0x00]);
            frame.extend_from_slice(b"hello from a unikernel");
            nh.tx.send(PktBuf::from_vec(frame)).unwrap();
            // Stay alive until the driver has flushed the frame.
            while nh.stats().tx_frames < 1 {
                rt2.sleep(Dur::micros(50)).await;
            }
            println!("main thread    : ran inside the sealed unikernel");
            42
        })
    });
    guest.add_device(nic);
    let dom = hv.create_domain("hello", 32, Box::new(guest));
    hv.run_until(mirage::hypervisor::Time::ZERO + Dur::secs(1));

    let seen = tap.harvest();
    println!(
        "on the wire    : {} frame(s) via {backend}, payload {:?}",
        seen.len(),
        seen.first().map(|f| String::from_utf8_lossy(&f[14..]).into_owned()).unwrap_or_default()
    );

    println!(
        "booted at      : {} (virtual time)",
        hv.observation(dom, "unikernel-booted").expect("booted").at
    );
    println!("exit code      : {:?}", hv.exit_code(dom));
    println!(
        "sealed + W^X   : {} / {}",
        hv.address_space(dom).is_sealed(),
        hv.address_space(dom).satisfies_wx()
    );
}
