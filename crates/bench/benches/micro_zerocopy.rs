//! Ablation: the zero-copy I/O discipline (paper §3.4.1, Figure 4) vs a
//! conventional per-packet syscall + user/kernel copy path, measured by
//! running the *same* live TCP bulk transfer with the netfront configured
//! either way — plus the notification-suppression and page-recycling
//! evidence the paper's design depends on.

use mirage_cstruct::{copy_counters, reset_copy_counters, CopyCounters, PagePool};
use mirage_devices::netfront::CopyDiscipline;
use mirage_devices::Backend;
use mirage_devices::{DriverDomain, NetProfile, Xenstore};
use mirage_http::{HandlerFuture, HttpConnection, HttpServer, Request, Response, Router};
use mirage_hypervisor::{Dur, Hypervisor, Time};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage_runtime::UnikernelGuest;

const TX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Bulk-transfers `bytes` with both endpoints using `discipline`; returns
/// (virtual completion seconds, hypervisor notification count).
fn transfer(discipline: CopyDiscipline, bytes: usize) -> (f64, u64) {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain(
        "dom0",
        512,
        Box::new(DriverDomain::with_profiles(
            xs.clone(),
            NetProfile::ten_gbe(),
            mirage_devices::DiskProfile::pcie_ssd(),
        )),
    );

    let (front_rx, nh_rx) = Backend::XenRing.net(xs.clone(), "rx", Mac::local(2).0, discipline);
    let mut rx = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_rx, StackConfig::static_ip(RX_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(5001).await.unwrap();
            let mut stream = listener.accept().await.unwrap();
            let mut got = 0usize;
            while let Some(chunk) = stream.read().await {
                got += chunk.len();
            }
            assert_eq!(got, bytes);
            rt2.now().as_nanos() as i64
        })
    });
    rx.add_device(front_rx);
    let rx_dom = hv.create_domain("rx", 64, Box::new(rx));

    let (front_tx, nh_tx) = Backend::XenRing.net(xs.clone(), "tx", Mac::local(1).0, discipline);
    let mut tx = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_tx, StackConfig::static_ip(TX_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut stream = stack.tcp_connect(RX_IP, 5001).await.unwrap();
            let chunk = vec![7u8; 16 * 1024];
            let mut sent = 0;
            while sent < bytes {
                let n = chunk.len().min(bytes - sent);
                stream.write(&chunk[..n]);
                sent += n;
                rt2.yield_now().await;
            }
            stream.close();
            stream.wait_closed().await;
            0i64
        })
    });
    tx.add_device(front_tx);
    hv.create_domain("tx", 64, Box::new(tx));

    hv.run_until(Time::ZERO + Dur::secs(300));
    let finished = hv.exit_code(rx_dom).expect("transfer completed") as u64;
    let elapsed = Time::from_nanos(finished).saturating_since(Time::ZERO + Dur::millis(5));
    (elapsed.as_secs_f64(), hv.stats().notifications)
}

/// Serves a `file_len`-byte static file over HTTP and fetches it `requests`
/// times on one keep-alive connection, with the global copy counters reset
/// at the start. Returns the counters and the total body bytes delivered.
///
/// Every software payload duplication anywhere in the path (stack, TCP send
/// buffer, HTTP parsers) is recorded; grant-page transfers are the simulated
/// DMA and serialisation into a wire frame happens exactly once per segment.
/// The PktBuf discipline leaves exactly one counted copy per delivered byte:
/// the client parser gathering the body out of its buffered receive views.
fn http_static_copy_audit(file_len: usize, requests: usize) -> (CopyCounters, u64) {
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 80);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 99);

    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    let file: Vec<u8> = (0..file_len).map(|i| (i % 251) as u8).collect();
    let expect = file.clone();

    let (front_s, nh_s) = Backend::XenRing.net(
        xs.clone(),
        "static",
        Mac::local(80).0,
        CopyDiscipline::ZeroCopy,
    );
    let mut appliance = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let router = Router::new().get("/file", move |_req: Request| -> HandlerFuture {
                let body = file.clone();
                Box::pin(async move { Response::ok("application/octet-stream", body) })
            });
            let server = HttpServer::new(router);
            let listener = stack.tcp_listen(80).await.unwrap();
            server.serve(rt2, listener).await
        })
    });
    appliance.add_device(front_s);
    hv.create_domain("static-web", 64, Box::new(appliance));

    let (front_c, nh_c) = Backend::XenRing.net(
        xs.clone(),
        "fetch",
        Mac::local(99).0,
        CopyDiscipline::ZeroCopy,
    );
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut conn = HttpConnection::open(&stack, SERVER_IP, 80).await.unwrap();
            for _ in 0..requests {
                let resp = conn.request(&Request::get("/file")).await.unwrap();
                assert_eq!(resp.status, 200);
                assert_eq!(resp.body, expect, "payload intact end to end");
            }
            conn.close().await;
            0
        })
    });
    client.add_device(front_c);
    let cdom = hv.create_domain("fetcher", 64, Box::new(client));

    reset_copy_counters();
    hv.run_until(Time::ZERO + Dur::secs(60));
    assert_eq!(hv.exit_code(cdom), Some(0), "all fetches completed");
    (copy_counters(), (file_len * requests) as u64)
}

fn main() {
    mirage_bench::report::banner(
        "Ablation",
        "zero-copy discipline vs per-packet syscall+copy (live 2 MB transfer)",
    );
    let bytes = 2_000_000;
    let (zc_time, zc_notifies) = transfer(CopyDiscipline::ZeroCopy, bytes);
    let (cp_time, cp_notifies) = transfer(CopyDiscipline::UserKernelCopy, bytes);
    let zc_mbps = bytes as f64 * 8.0 / zc_time / 1e6;
    let cp_mbps = bytes as f64 * 8.0 / cp_time / 1e6;
    mirage_bench::report::table(
        &["discipline", "Mb/s", "notifications"],
        &[
            vec![
                "zero-copy (Mirage)".into(),
                format!("{zc_mbps:.0}"),
                format!("{zc_notifies}"),
            ],
            vec![
                "syscall+copy (conventional)".into(),
                format!("{cp_mbps:.0}"),
                format!("{cp_notifies}"),
            ],
        ],
    );
    println!(
        "zero-copy speedup: {:.2}x; notifications per MB: {:.0} (event-index suppression)",
        zc_mbps / cp_mbps,
        zc_notifies as f64 / (bytes as f64 / 1e6)
    );
    assert!(zc_mbps > cp_mbps, "the §3.4.1 discipline must win");

    // Page-recycling evidence: a pool never leaks under view churn.
    let pool = PagePool::new(8);
    for _ in 0..10_000 {
        let mut page = pool.alloc().expect("recycled");
        page.truncate(64);
        let buf = page.freeze();
        let (_a, _b) = buf.split_at(32);
    }
    let stats = pool.stats();
    println!(
        "page pool: {} allocs, {} recycles, {} free of {} (no leaks)",
        stats.total_allocs, stats.total_recycles, stats.free, stats.capacity
    );
    assert_eq!(stats.free, stats.capacity);

    // Copy accounting on the HTTP static-file path: pool page -> PktBuf
    // views -> wire -> PktBuf views -> one gather into the response body.
    let (counters, delivered) = http_static_copy_audit(8 * 1024, 16);
    let per_byte = counters.copy_bytes as f64 / delivered as f64;
    println!(
        "http static path: {} B delivered, {} software copies ({} B), \
         {} serialisations ({} B) -> {:.3} copied bytes per delivered byte",
        delivered,
        counters.copies,
        counters.copy_bytes,
        counters.serializes,
        counters.serialize_bytes,
        per_byte
    );
    assert!(
        per_byte <= 1.0 + 1e-9,
        "at most one software copy per delivered payload byte (got {per_byte:.3})"
    );
    assert!(
        counters.serialize_bytes as u64 >= delivered,
        "every delivered byte crossed the wire exactly once or more"
    );
}
