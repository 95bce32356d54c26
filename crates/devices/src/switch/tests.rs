//! Tests of the switch: the conditioner's release order, the MAC table's
//! per-port cap, and the RX buffers a frame meets in place — a bad one is
//! rejected once, a fresh one is mapped on the queued path's lane, a
//! status byte on the sending page is written after the send, and a
//! buffer on the sending page itself takes the frame intact. Beside
//! them, dom0's map caches keep the rights a page was mapped with: a page
//! granted read-only is never written, as an RX buffer or by a virtio
//! disk read.

use super::*;
use crate::blk::{wire, DiskProfile};
use crate::blkback::BlkBackend;
use crate::netem::NetemConfig;
use crate::transport::{
    advertise_disk, advertise_nic, attach_disk, attach_nic, BackTransport, Completion, Dir,
    FrontTransport, RingBack, RingFront, VirtqBack, VirtqFront,
};
use crate::virtio::virtqueue::{buf_addr, ChainBuf, QueuePages, SplitQueue};
use crate::xenstore::Xenstore;
use mirage_hypervisor::grant::GrantRef;
use mirage_hypervisor::{Guest, Hypervisor, Step, Wake};
use mirage_testkit::rng::Rng;

const TAP_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x01];

/// A domain that is nothing but a switch: it offers three frames at
/// one instant, then services the switch whenever it says it is due.
struct Offers {
    sw: Switch,
    offered: bool,
}

impl Guest for Offers {
    fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
        let counts = &mut DriverStats::default();
        if !self.offered {
            self.offered = true;
            for tag in [3u8, 1, 2] {
                let mut frame = vec![tag; 64];
                frame[..6].copy_from_slice(&TAP_MAC);
                let frame = PktBuf::from_vec(frame);
                self.sw.offer(env.now(), None, Frame::Held(frame), counts);
            }
        }
        self.sw.service(env, counts);
        let deadline = self.sw.next_deadline();
        Step::Yield(Wake { deadline })
    }
}

/// Frames the conditioner releases at one instant leave in the order
/// they were offered.
#[test]
fn frames_released_together_leave_in_offer_order() {
    let mut sw = Switch::new(NetProfile::default());
    let tap = Tap::new(TAP_MAC);
    sw.taps.push(tap.clone());
    let fixed_delay = NetemConfig {
        delay: Dur::millis(2),
        ..NetemConfig::default()
    };
    sw.netem = Some(Netem::from_seed(fixed_delay, 1, "fixed-delay"));
    let offered = false;
    let mut hv = Hypervisor::new();
    hv.create_domain("switch", 64, Box::new(Offers { sw, offered }));
    hv.run_until(Time::ZERO + Dur::millis(1));
    assert!(tap.harvest().is_empty(), "still held");
    hv.run_until(Time::ZERO + Dur::millis(3));
    let tags: Vec<u8> = tap.harvest().iter().map(|f| f[13]).collect();
    assert_eq!(tags, [3, 1, 2]);
}

/// A guest that writes a fresh source MAC on every frame fills its
/// port's share of the table and no further; another port still learns,
/// and an address moves only to a port with room.
#[test]
fn the_mac_table_stops_growing_at_its_cap() {
    in_domain(1, |env| {
        let mut sw = Switch::new(NetProfile::default());
        let _a = Nic::<RingFront>::attach::<RingBack>(env, &mut sw, "a");
        let _b = Nic::<RingFront>::attach::<RingBack>(env, &mut sw, "b");
        let counts = &mut DriverStats::default();
        let mac = |n: u32| {
            let mut mac = [0x06, 0, 0, 0, 0, 0];
            mac[2..].copy_from_slice(&n.to_be_bytes());
            mac
        };
        let from = |n: u32| {
            let mut frame = vec![0u8; 64];
            frame[..6].copy_from_slice(&[0x02, 0, 0, 0, 0, 0xEE]);
            frame[6..12].copy_from_slice(&mac(n));
            PktBuf::from_vec(frame)
        };
        for n in 0..10_000 {
            sw.route(Some(0), Frame::Held(from(n)), counts);
        }
        assert_eq!(counts.frames_switched, 10_000);
        assert_eq!(sw.mac_table.len(), MACS_PER_PORT);
        sw.route(Some(1), Frame::Held(from(20_000)), counts);
        assert_eq!(sw.mac_table.get(&mac(20_000)), Some(&1), "port 1 learns");
        sw.route(Some(0), Frame::Held(from(20_000)), counts);
        assert_eq!(sw.mac_table.get(&mac(20_000)), Some(&1), "port 0 is full");
        sw.route(Some(1), Frame::Held(from(0)), counts);
        assert_eq!(sw.mac_table.get(&mac(0)), Some(&1), "moved");
        assert_eq!(sw.mac_table.len(), MACS_PER_PORT + 1);
        assert_eq!((sw.ports[0].macs, sw.ports[1].macs), (MACS_PER_PORT - 1, 2));
    });
}

const MAC_A: [u8; 6] = [0x02, 0, 0, 0, 0, 0x0A];
const MAC_B: [u8; 6] = [0x02, 0, 0, 0, 0, 0x0B];

/// One NIC's guest half — TX and RX queue — whose dom0 half is a port
/// of the switch, attached through the handshake inside the test's
/// own domain.
struct Nic<F> {
    tx: F,
    rx: F,
}

impl<F: FrontTransport> Nic<F> {
    fn attach<B: BackTransport + 'static>(
        env: &mut DomainEnv<'_>,
        sw: &mut Switch,
        name: &str,
    ) -> Nic<F> {
        let xs = Xenstore::new();
        let dir = Dir {
            xs,
            base: format!("device/{}/{name}", F::NET_DIR),
        };
        let (tx, rx) = advertise_nic::<F>(env, &dir, env.domid(), 1).remove(0);
        sw.add_port(attach_nic::<B>(env, &dir).expect("attached"), None);
        Nic { tx, rx }
    }

    /// Sends a 64-byte frame from `src` to `dst`; returns it.
    fn send(&mut self, env: &mut DomainEnv<'_>, dst: [u8; 6], src: [u8; 6]) -> Vec<u8> {
        self.send_granted(env, dst, src).0
    }

    /// [`Self::send`], also returning the page the frame went from, which
    /// is granted read-only, and its grant ref.
    fn send_granted(
        &mut self,
        env: &mut DomainEnv<'_>,
        dst: [u8; 6],
        src: [u8; 6],
    ) -> (Vec<u8>, SharedPage, u32) {
        let mut frame = vec![0x5A; 64];
        frame[..6].copy_from_slice(&dst);
        frame[6..12].copy_from_slice(&src);
        let page = SharedPage::new();
        page.write(|b| b[..64].copy_from_slice(&frame));
        let gref = env.grant(env.domid(), page.clone(), false);
        self.tx.post(&[], DataBuf::page(gref, 64, false));
        self.tx.publish();
        (frame, page, gref.0)
    }

    /// Posts a fresh page as a whole-frame RX buffer: its token, grant
    /// ref and page.
    fn post_rx(&mut self, env: &mut DomainEnv<'_>) -> (u32, u32, SharedPage) {
        let page = SharedPage::new();
        let GrantRef(gref) = env.grant(env.domid(), page.clone(), true);
        (self.repost(gref, 0, MAX_FRAME as u32, true), gref, page)
    }

    /// Posts `len` bytes at `off` of granted page `gref` as an RX buffer.
    fn repost(&mut self, gref: u32, off: usize, len: u32, device_writes: bool) -> u32 {
        let data = DataBuf {
            gref,
            off,
            len,
            device_writes,
        };
        let token = self.rx.post(&[], data);
        self.rx.publish();
        token
    }

    fn received(&mut self) -> Vec<Completion> {
        std::iter::from_fn(|| self.rx.reap()).collect()
    }
}

/// Runs `body` once inside a domain of `vcpus` vCPUs.
fn in_domain(vcpus: usize, body: impl FnOnce(&mut DomainEnv<'_>) + 'static) -> Hypervisor {
    struct Once<F>(Option<F>);
    impl<F: FnOnce(&mut DomainEnv<'_>)> Guest for Once<F> {
        fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
            self.0.take().expect("steps once")(env);
            Step::Exit(0)
        }
    }
    let mut hv = Hypervisor::new();
    let dom = hv.create_domain_vcpus("switch", 64, Box::new(Once(Some(body))), vcpus);
    hv.run();
    assert_eq!(hv.exit_code(dom), Some(0));
    hv
}

/// B's next RX buffer, met by the direct path with A's frame for B in
/// hand, is `bad`, on a page dom0 has already mapped: it must come back
/// failed and be counted once, and the frame must go into the good
/// buffer behind it.
fn bad_rx_buffer<F: FrontTransport, B: BackTransport + 'static>(
    what: &'static str,
    bad: (usize, u32, bool),
) {
    in_domain(1, move |env| {
        let mut sw = Switch::new(NetProfile::default());
        let counts = &mut DriverStats::default();
        let mut a = Nic::<F>::attach::<B>(env, &mut sw, "a");
        let mut b = Nic::<F>::attach::<B>(env, &mut sw, "b");
        // B speaks first, so the switch has learned where it lives, and
        // two frames for B have the switch map both of its RX pages.
        b.send(env, MAC_A, MAC_B);
        sw.service(env, counts);
        let (_, first, _) = b.post_rx(env);
        let (_, second, good) = b.post_rx(env);
        a.send(env, MAC_B, MAC_A);
        a.send(env, MAC_B, MAC_A);
        sw.service(env, counts);
        assert_eq!(b.received().len(), 2);
        let (off, len, device_writes) = bad;
        let bad_token = b.repost(first, off, len, device_writes);
        let good_token = b.repost(second, 0, MAX_FRAME as u32, true);
        let frame = a.send(env, MAC_B, MAC_A);
        let rejected = counts.requests_rejected;
        sw.service(env, counts);
        let got: Vec<(u32, u32)> = b.received().iter().map(|c| (c.token, c.len)).collect();
        let tag = format!("[{}] {what}", F::BACKEND);
        assert_eq!(got, [(bad_token, 0), (good_token, 64)], "{tag}");
        assert_eq!(
            counts.requests_rejected - rejected,
            1,
            "{tag}: counted once"
        );
        assert_eq!(counts.frames_switched, 4, "{tag}");
        assert_eq!(good.read(|p| p[..64].to_vec()), frame, "{tag}");
    });
}

fn bad_rx_buffers<F: FrontTransport, B: BackTransport + 'static>() {
    bad_rx_buffer::<F, B>("past the page", (4000, 200, true));
    bad_rx_buffer::<F, B>("shorter than the frame", (0, 63, true));
    bad_rx_buffer::<F, B>("read-only", (0, MAX_FRAME as u32, false));
}

#[test]
fn a_bad_rx_buffer_met_by_the_direct_path_is_rejected_once() {
    bad_rx_buffers::<RingFront, RingBack>();
    bad_rx_buffers::<VirtqFront, VirtqBack>();
}

/// Port 1's frame for port 0 is ingested on lane 1, and port 0's RX
/// page has never been mapped: with or without a conditioner (which
/// turns the direct path off) the page is mapped once, on the lane
/// the delivery loop runs on, and each lane's clock reads the same.
fn fresh_rx_page<F: FrontTransport, B: BackTransport + 'static>(netem: bool) -> (Vec<Time>, u64) {
    let lanes = Rc::new(RefCell::new(Vec::new()));
    let out = Rc::clone(&lanes);
    let hv = in_domain(2, move |env| {
        let mut sw = Switch::new(NetProfile::default());
        if netem {
            sw.netem = Some(Netem::from_seed(NetemConfig::default(), 1, "perfect"));
        }
        let counts = &mut DriverStats::default();
        let mut a = Nic::<F>::attach::<B>(env, &mut sw, "a");
        let mut b = Nic::<F>::attach::<B>(env, &mut sw, "b");
        a.send(env, MAC_B, MAC_A);
        sw.service(env, counts);
        let (token, _, page) = a.post_rx(env);
        let frame = b.send(env, MAC_A, MAC_B);
        sw.service(env, counts);
        assert_eq!(a.received()[0].token, token);
        assert_eq!(page.read(|p| p[..64].to_vec()), frame);
        *out.borrow_mut() = vec![env.now_on(0), env.now_on(1)];
    });
    let lanes = lanes.borrow().clone();
    (lanes, hv.stats().grant_maps)
}

#[test]
fn a_fresh_rx_page_is_mapped_in_the_delivery_loop() {
    for (direct, queued) in [
        (
            fresh_rx_page::<RingFront, RingBack>(false),
            fresh_rx_page::<RingFront, RingBack>(true),
        ),
        (
            fresh_rx_page::<VirtqFront, VirtqBack>(false),
            fresh_rx_page::<VirtqFront, VirtqBack>(true),
        ),
    ] {
        assert_eq!(direct, queued);
    }
}

/// A sends from a page it granted read-only, which dom0 maps read-only,
/// then posts that page as an RX buffer. B's frame for A must not go in
/// it: the buffer comes back empty, counted once, the page keeps its
/// bytes, and the frame waits for the next buffer.
fn read_only_rx_page<F: FrontTransport, B: BackTransport + 'static>() {
    in_domain(1, |env| {
        let mut sw = Switch::new(NetProfile::default());
        let counts = &mut DriverStats::default();
        let mut a = Nic::<F>::attach::<B>(env, &mut sw, "a");
        let mut b = Nic::<F>::attach::<B>(env, &mut sw, "b");
        let (sent, page, gref) = a.send_granted(env, MAC_B, MAC_A);
        sw.service(env, counts);
        let token = a.repost(gref, 0, MAX_FRAME as u32, true);
        let frame = b.send(env, MAC_A, MAC_B);
        sw.service(env, counts);
        let tag = F::BACKEND;
        let got: Vec<(u32, u32)> = a.received().iter().map(|c| (c.token, c.len)).collect();
        assert_eq!(got, [(token, 0)], "[{tag}]");
        assert_eq!(counts.requests_rejected, 1, "[{tag}]");
        assert_eq!(page.read(|p| p[..64].to_vec()), sent, "[{tag}]");
        let (good_token, _, good) = a.post_rx(env);
        sw.service(env, counts);
        let got: Vec<(u32, u32)> = a.received().iter().map(|c| (c.token, c.len)).collect();
        assert_eq!(got, [(good_token, 64)], "[{tag}]");
        assert_eq!(good.read(|p| p[..64].to_vec()), frame, "[{tag}]");
    });
}

#[test]
fn a_page_granted_read_only_is_no_rx_buffer() {
    read_only_rx_page::<RingFront, RingBack>();
    read_only_rx_page::<VirtqFront, VirtqBack>();
}

/// One virtio disk read of sector 0 over pages the guest granted with
/// these rights: the used length, the status byte (0xFF until dom0
/// writes it), the requests rejected and the data page's first sector
/// (0xEE until dom0 reads into it).
fn disk_read(header_writable: bool, data_writable: bool) -> (u32, u8, u64, Vec<u8>) {
    let seen = Rc::new(RefCell::new(None));
    let out = Rc::clone(&seen);
    in_domain(1, move |env| {
        let dir = Dir {
            xs: Xenstore::new(),
            base: "device/vblk/hostile".into(),
        };
        advertise_disk::<VirtqFront>(env, &dir, env.domid());
        let mut q = driver_queue(env, &dir, "");
        let (port, queue) = attach_disk::<VirtqBack>(env, &dir).expect("attached");
        let mut disk = BlkBackend::new(port, queue, DiskProfile::pcie_ssd(), 64);
        let header = SharedPage::new();
        header.write(|b| {
            b[..11].copy_from_slice(&wire::req(wire::OP_READ, 0, 1));
            b[2048] = 0xFF;
        });
        let data = SharedPage::new();
        data.write(|b| b[..512].fill(0xEE));
        let GrantRef(hdr) = env.grant(env.domid(), header.clone(), header_writable);
        let GrantRef(into) = env.grant(env.domid(), data.clone(), data_writable);
        let chain = [
            chain_buf(hdr, 0, 11, false),
            chain_buf(into, 0, 512, true),
            chain_buf(hdr, 2048, 1, true),
        ];
        let head = q.stage_chain(&chain).expect("room");
        q.publish();
        let counts = &mut DriverStats::default();
        let rng = &mut Rng::for_stream(1, "disk");
        disk.service(env, rng, counts);
        env.consume(Dur::millis(1));
        disk.service(env, rng, counts);
        let (used, len) = q.take_used().expect("completed");
        assert_eq!(used, head);
        let status = header.read(|b| b[2048]);
        let sector = data.read(|b| b[..512].to_vec());
        *out.borrow_mut() = Some((len, status, counts.requests_rejected, sector));
    });
    let seen = seen.borrow_mut().take().expect("ran");
    seen
}

/// A read whose header page (status byte and all) or whose data page the
/// guest granted read-only is rejected and counted, and dom0 writes
/// neither page, bar a failed status where it may write one.
#[test]
fn a_disk_read_into_a_page_granted_read_only_is_rejected() {
    assert_eq!(disk_read(false, true), (0, 0xFF, 1, vec![0xEE; 512]));
    assert_eq!(disk_read(true, false), (1, 1, 1, vec![0xEE; 512]));
    assert_eq!(disk_read(true, true), (513, 0, 0, vec![0; 512]));
}

/// A driver queue over the pages of the virtqueue advertised in `dir`
/// under `prefix`, for a test to write descriptors by hand, as a hostile
/// guest may.
fn driver_queue(env: &mut DomainEnv<'_>, dir: &Dir, prefix: &str) -> SplitQueue {
    let mut area = |name: &str| {
        let gref: u32 = dir
            .read(env, &format!("{prefix}{name}"))
            .expect("advertised");
        env.grant_map(GrantRef(gref), false).expect("own grant")
    };
    SplitQueue::new(QueuePages {
        desc: area("desc"),
        avail: area("avail"),
        used: area("used"),
    })
}

fn chain_buf(gref: u32, off: usize, len: u32, device_writes: bool) -> ChainBuf {
    ChainBuf {
        addr: buf_addr(gref, off),
        len,
        device_writes,
    }
}

/// A virtio NIC whose RX descriptors the test writes by hand: its TX
/// half is a [`VirtqFront`], its RX half a [`driver_queue`].
fn hand_driven_nic(env: &mut DomainEnv<'_>, sw: &mut Switch) -> (VirtqFront, SplitQueue) {
    let dir = Dir {
        xs: Xenstore::new(),
        base: "device/vnet/hostile".into(),
    };
    let (tx, _) = advertise_nic::<VirtqFront>(env, &dir, env.domid(), 1).remove(0);
    let rx = driver_queue(env, &dir, "q0/rx-");
    sw.add_port(attach_nic::<VirtqBack>(env, &dir).expect("attached"), None);
    (tx, rx)
}

type Hairpin = (Vec<u8>, Option<(u16, u32)>, u8, DriverStats, Time);

/// A guest posts an RX chain in the block layout, `[header, data,
/// status]`, whose header and status byte sit on the page it then
/// sends from, and sends that page's frame to its own MAC, which the
/// switch hands back to it. The RX page is already mapped, so without
/// a conditioner the direct path meets the chain with the TX page in
/// hand. What the guest sees, the counts, the clock and the grant maps.
fn status_on_the_tx_page(netem: bool) -> (Hairpin, u64) {
    let seen = Rc::new(RefCell::new(None));
    let out = Rc::clone(&seen);
    let hv = in_domain(1, move |env| {
        let mut sw = Switch::new(NetProfile::default());
        if netem {
            sw.netem = Some(Netem::from_seed(NetemConfig::default(), 1, "perfect"));
        }
        let counts = &mut DriverStats::default();
        let (mut tx, mut rx) = hand_driven_nic(env, &mut sw);
        let mut frame = vec![0x5A; 64];
        frame[..6].copy_from_slice(&MAC_A);
        frame[6..12].copy_from_slice(&MAC_A);
        let page = SharedPage::new();
        page.write(|b| b[..64].copy_from_slice(&frame));
        let from = env.grant(env.domid(), page.clone(), true);
        let rx_page = SharedPage::new();
        let GrantRef(into) = env.grant(env.domid(), rx_page.clone(), true);
        let data = chain_buf(into, 0, MAX_FRAME as u32, true);
        // The first frame has the delivery loop map the RX page.
        for chain in [
            vec![data],
            vec![
                chain_buf(from.0, 0, 8, false),
                data,
                chain_buf(from.0, 2048, 1, true),
            ],
        ] {
            page.write(|b| b[2048] = 0xFF);
            rx.stage_chain(&chain).expect("room");
            rx.publish();
            tx.post(&[], DataBuf::page(from, 64, false));
            tx.publish();
            sw.service(env, counts);
        }
        let (_, first) = rx.take_used().expect("first frame delivered");
        assert_eq!(first, 64);
        *out.borrow_mut() = Some((
            rx_page.read(|b| b[..64].to_vec()),
            rx.take_used(),
            page.read(|b| b[2048]),
            *counts,
            env.now(),
        ));
    });
    let seen = seen.borrow_mut().take().expect("ran");
    (seen, hv.stats().grant_maps)
}

#[test]
fn a_status_byte_on_the_sending_page_is_written_after_the_send() {
    let direct = status_on_the_tx_page(false);
    let queued = status_on_the_tx_page(true);
    let (bytes, used, status, counts, _) = &direct.0;
    assert_eq!(bytes[..6], MAC_A);
    assert_eq!(used.map(|(_, len)| len), Some(65), "frame and status byte");
    assert_eq!(*status, 0, "completed ok");
    assert_eq!(counts.frames_switched, 2);
    assert_eq!(direct, queued);
}

type SamePage = (Vec<u8>, Vec<(u32, u32)>, DriverStats, Time);

/// A guest posts a page as its RX buffer at offset 1024, then sends the
/// frame at the start of that same page to its own MAC. The switch cannot
/// read that page while it writes it, so the frame is read out first.
/// What the buffer holds, what the guest reaps, the counts, the clock and
/// the grant maps.
fn rx_buffer_on_the_tx_page<F: FrontTransport, B: BackTransport + 'static>(
    netem: bool,
) -> (SamePage, u64) {
    let seen = Rc::new(RefCell::new(None));
    let out = Rc::clone(&seen);
    let hv = in_domain(1, move |env| {
        let mut sw = Switch::new(NetProfile::default());
        if netem {
            sw.netem = Some(Netem::from_seed(NetemConfig::default(), 1, "perfect"));
        }
        let counts = &mut DriverStats::default();
        let mut a = Nic::<F>::attach::<B>(env, &mut sw, "a");
        let mut frame = vec![0x5A; 64];
        frame[..6].copy_from_slice(&MAC_A);
        frame[6..12].copy_from_slice(&MAC_A);
        let page = SharedPage::new();
        page.write(|b| b[..64].copy_from_slice(&frame));
        let from = env.grant(env.domid(), page.clone(), true);
        a.repost(from.0, 1024, 2048, true);
        a.tx.post(&[], DataBuf::page(from, 64, false));
        a.tx.publish();
        sw.service(env, counts);
        let got = a.received().iter().map(|c| (c.token, c.len)).collect();
        let bytes = page.read(|b| b[1024..1088].to_vec());
        assert_eq!(bytes, frame, "[{}] intact", F::BACKEND);
        *out.borrow_mut() = Some((bytes, got, *counts, env.now()));
    });
    let seen = seen.borrow_mut().take().expect("ran");
    (seen, hv.stats().grant_maps)
}

#[test]
fn an_rx_buffer_on_the_sending_page_takes_the_frame_intact() {
    for (direct, queued) in [
        (
            rx_buffer_on_the_tx_page::<RingFront, RingBack>(false),
            rx_buffer_on_the_tx_page::<RingFront, RingBack>(true),
        ),
        (
            rx_buffer_on_the_tx_page::<VirtqFront, VirtqBack>(false),
            rx_buffer_on_the_tx_page::<VirtqFront, VirtqBack>(true),
        ),
    ] {
        let (_, got, counts, _) = &direct.0;
        assert_eq!(got.iter().map(|&(_, len)| len).collect::<Vec<_>>(), [64]);
        assert_eq!((counts.frames_switched, counts.requests_rejected), (1, 0));
        assert_eq!(direct, queued);
    }
}
