//! The §2.3 defence-in-depth claims, exercised end to end:
//! sealing stops runtime page-table attacks, compile-time ASR moves the
//! ROP targets per deployment, and the type-safe parsers absorb the
//! malformed-input classes behind the BIND CVE taxonomy of §4.2.

use mirage::core::{Appliance, Library, SealMode};
use mirage::dns::{DnsServer, ServerConfig, Zone};
use mirage::hypervisor::memory::MemError;
use mirage::hypervisor::{Dur, Hypervisor};
use mirage::net::tcp::TcpSegment;
use mirage::net::{ethernet, icmp, ipv4, udp};
use mirage::openflow::OfMessage;

#[test]
fn sealed_appliance_rejects_every_page_table_attack() {
    let appliance = Appliance::builder("victim")
        .library(Library::APP_HTTP)
        .build()
        .unwrap();
    let guest = appliance.into_guest(32, |env, rt| {
        // A compromised runtime tries, in order: W+X remap of data, fresh
        // executable mapping, unmapping a guard, and remapping text
        // writable. All must bounce off the seal.
        let base = mirage::pvboot::layout::GUEST_BASE;
        let attacks: [Result<(), MemError>; 3] = [
            env.mmu_protect(base + 0x200000, true, true).map(|_| ()),
            env.mmu_map(mirage::hypervisor::memory::Mapping {
                vaddr: 0x7000_0000,
                pages: 1,
                writable: true,
                executable: true,
                region: mirage::hypervisor::memory::Region::Text,
            }),
            env.mmu_unmap(base).map(|_| ()),
        ];
        for (i, result) in attacks.iter().enumerate() {
            assert!(
                matches!(result, Err(MemError::Sealed) | Err(MemError::NotMapped)),
                "attack {i} must be rejected, got {result:?}"
            );
        }
        rt.spawn(async { 0i64 })
    });
    let mut hv = Hypervisor::new();
    let dom = hv.create_domain("victim", 32, Box::new(guest));
    hv.run();
    assert_eq!(hv.exit_code(dom), Some(0));
    let aspace = hv.address_space(dom);
    assert!(aspace.is_sealed() && aspace.satisfies_wx());
    assert!(aspace.rejected_updates() >= 2, "attacks were counted");
}

#[test]
fn unsealed_mode_documents_the_lost_layer() {
    // "Mirage can run on unmodified versions of Xen without this patch,
    // albeit losing this layer of the defence-in-depth."
    let appliance = Appliance::builder("legacy-xen")
        .library(Library::APP_DNS)
        .seal(SealMode::Unsealed)
        .build()
        .unwrap();
    let guest = appliance.into_guest(32, |env, rt| {
        // Without the seal the same protect call (on a mapped data page)
        // succeeds — which is exactly why the patch exists.
        let minor_heap = mirage::pvboot::layout::GUEST_BASE + 0x10_000;
        let target = env
            .mmu_protect(minor_heap, true, true)
            .or_else(|_| env.mmu_protect(mirage::pvboot::layout::GUEST_BASE, true, true));
        assert!(target.is_ok(), "unsealed page tables remain mutable");
        rt.spawn(async { 0i64 })
    });
    let mut hv = Hypervisor::new();
    let dom = hv.create_domain("legacy", 32, Box::new(guest));
    hv.run();
    assert_eq!(hv.exit_code(dom), Some(0));
    assert!(!hv.address_space(dom).satisfies_wx(), "W^X was broken");
}

#[test]
fn compile_time_asr_randomises_rop_targets_per_deployment() {
    let build = |seed: u64| {
        Appliance::builder("dns")
            .library(Library::APP_DNS)
            .layout_seed(seed)
            .build()
            .unwrap()
    };
    let images: Vec<_> = (0..8).map(&build).collect();
    // The gadget the attacker wants: the address of the tcp/udp section.
    let addrs: Vec<u64> = images
        .iter()
        .map(|a| a.image().section_address("udp").expect("udp linked"))
        .collect();
    let distinct: std::collections::HashSet<_> = addrs.iter().collect();
    assert!(
        distinct.len() >= 6,
        "section addresses vary across deployments: {addrs:?}"
    );
    for a in &images {
        assert!(a.image().layout_is_valid());
    }
    // Same seed => identical binary (reproducible builds).
    assert_eq!(build(3).image(), build(3).image());
}

#[test]
fn malformed_input_classes_are_absorbed_not_executed() {
    // §4.2: of BIND's published CVEs, "25% were due to memory management
    // errors, 15% to poor handling of exceptional data states, and 10% to
    // faulty packet parsing code, all of which would be mitigated by
    // Mirage's type-safety." Feed hostile bytes to every parser: nothing
    // may panic, and nothing may be silently accepted as valid.
    let zone = Zone::synthesize("example.org", 50);
    let server = DnsServer::new(zone, ServerConfig::default());
    let src = std::net::Ipv4Addr::new(1, 2, 3, 4);
    let dst = std::net::Ipv4Addr::new(5, 6, 7, 8);

    let mut absorbed = 0u32;
    for len in [0usize, 1, 3, 11, 12, 13, 27, 64, 255, 1500] {
        // Deterministic hostile payloads: compression loops, huge counts,
        // truncated headers, random-ish bytes.
        let mut junk = vec![0u8; len];
        for (i, b) in junk.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(197).wrapping_add(len as u8);
        }
        if server.answer(&junk).is_none() {
            absorbed += 1;
        }
        assert!(ipv4::Ipv4Packet::parse(&junk).is_err() || len >= 20);
        let _ = TcpSegment::parse(src, dst, &mirage::net::PktBuf::from_vec(junk.clone()));
        let _ = udp::UdpDatagram::parse(src, dst, &junk);
        let _ = icmp::Echo::parse(&junk);
        let _ = ethernet::Frame::parse(&junk);
        let _ = OfMessage::parse(&junk);
    }
    assert!(absorbed >= 9, "garbage never becomes an answer");

    // The classic compression-pointer loop (a historical BIND parser CVE
    // shape): a name pointing at itself.
    let mut evil = vec![0u8; 12];
    evil[5] = 1; // one question
    evil.extend_from_slice(&[0xC0, 0x0C]); // pointer to itself
    evil.extend_from_slice(&[0, 1, 0, 1]);
    assert!(server.answer(&evil).is_none(), "pointer loop dropped");
    assert!(server.stats().malformed > 0);
}

#[test]
fn cost_table_perturbation_preserves_figure_orderings() {
    // DESIGN.md's sensitivity claim: the comparative shapes derive from
    // operation counts, so scaling every unit cost must not flip winners.
    use mirage::baseline::{DnsVariant, DynamicWebVariant, StaticWebConfig};
    for (num, den) in [(1u64, 2u64), (2, 1), (3, 2), (2, 3)] {
        let costs = mirage::hypervisor::CostTable::defaults().scaled(num, den);
        assert!(
            DnsVariant::MirageMemo.throughput_qps(&costs, 5000)
                > DnsVariant::MirageNoMemo.throughput_qps(&costs, 5000)
        );
        assert!(
            DnsVariant::Nsd.throughput_qps(&costs, 5000)
                > DnsVariant::NsdMiniOsO3.throughput_qps(&costs, 5000)
        );
        assert!(
            DynamicWebVariant::Mirage.capacity_rps(&costs)
                > DynamicWebVariant::LinuxWebPy.capacity_rps(&costs)
        );
        assert!(
            StaticWebConfig::Mirage6x1.throughput_cps(&costs)
                > StaticWebConfig::Linux1x6.throughput_cps(&costs)
        );
        let _ = Dur::ZERO;
    }
}
