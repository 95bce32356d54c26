//! The §4.4 "Twitter-like" dynamic web appliance: HTTP server + append-only
//! copy-on-write B-tree in one unikernel, exercised by an httperf-style
//! client session (1 POST + GETs of the last tweets).
//!
//! ```text
//! cargo run -p web_appliance
//! ```

use mirage_devices::netfront::CopyDiscipline;
use mirage_devices::{Backend, DriverDomain, Xenstore};
use mirage_http::{HandlerFuture, HttpConnection, HttpServer, Request, Response, Router};
use mirage_hypervisor::{Dur, Hypervisor, Time};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage_runtime::UnikernelGuest;
use mirage_storage::{BlkDevice, BlockLog, Tree};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 80);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 99);

fn main() {
    // One flag picks the ring ABI for every device below:
    // MIRAGE_BACKEND=xen (default) or MIRAGE_BACKEND=virtio.
    let backend = Backend::from_env();
    println!("[world] device backend: {backend}");

    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    // The appliance: net frontend + blk frontend + HTTP + B-tree, one VM.
    let (netf, nh) = backend.net(xs.clone(), "web0", Mac::local(80).0, CopyDiscipline::ZeroCopy);
    let (blkf, bh) = backend.blk(xs.clone(), "vda", 1 << 16);
    let mut appliance = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh, StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            // Tweets persist in the copy-on-write B-tree on the virtual
            // disk — the Baardskeerder port of §3.5.2.
            let disk = BlkDevice::new(&rt2, bh);
            let tree = Tree::new(BlockLog::new(disk, 0));
            let tree_post = tree.clone();
            let tree_get = tree.clone();
            let router = Router::new()
                .post("/tweet", move |req: Request| -> HandlerFuture {
                    let tree = tree_post.clone();
                    Box::pin(async move {
                        let (_, query) = req.split_query();
                        let user = query.unwrap_or("anon").to_owned();
                        let seq = tree.scan().await.map(|v| v.len()).unwrap_or(0);
                        let key = format!("{seq:08}:{user}");
                        match tree.set(key.as_bytes(), &req.body).await {
                            Ok(()) => Response::status(201),
                            Err(_) => Response::status(500),
                        }
                    })
                })
                .get("/timeline", move |_req: Request| -> HandlerFuture {
                    let tree = tree_get.clone();
                    Box::pin(async move {
                        match tree.scan().await {
                            Ok(entries) => {
                                let mut body = String::new();
                                for (k, v) in entries.iter().rev().take(100) {
                                    body.push_str(&format!(
                                        "{}: {}\n",
                                        String::from_utf8_lossy(k),
                                        String::from_utf8_lossy(v)
                                    ));
                                }
                                Response::ok("text/plain", body.into_bytes())
                            }
                            Err(_) => Response::status(500),
                        }
                    })
                });
            let server = HttpServer::new(router);
            let stats = server.stats();
            let listener = stack.tcp_listen(80).await.expect("port 80");
            let code = server.serve(rt2.clone(), listener).await;
            println!(
                "[web] served {} requests",
                stats.requests.load(std::sync::atomic::Ordering::Relaxed)
            );
            code
        })
    });
    appliance.add_device(netf);
    appliance.add_device(blkf);
    hv.create_domain("web-appliance", 64, Box::new(appliance));

    // httperf-style session: 1 POST + 9 timeline GETs.
    let (front_c, nh_c) =
        backend.net(xs.clone(), "perf", Mac::local(99).0, CopyDiscipline::ZeroCopy);
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut conn = HttpConnection::open(&stack, SERVER_IP, 80).await.unwrap();
            for i in 0..3 {
                let resp = conn
                    .request(&Request::post(
                        format!("/tweet?user=alice{i}"),
                        format!("unikernels are small ({i})").into_bytes(),
                    ))
                    .await
                    .unwrap();
                println!("[httperf] POST /tweet -> {}", resp.status);
            }
            for _ in 0..9 {
                let resp = conn.request(&Request::get("/timeline")).await.unwrap();
                assert_eq!(resp.status, 200);
            }
            let resp = conn.request(&Request::get("/timeline")).await.unwrap();
            println!("[httperf] timeline:\n{}", String::from_utf8_lossy(&resp.body));
            conn.close().await;
            0
        })
    });
    client.add_device(front_c);
    let cdom = hv.create_domain("httperf", 32, Box::new(client));

    hv.run_until(Time::ZERO + Dur::secs(30));
    assert_eq!(hv.exit_code(cdom), Some(0));
    println!("[world] done at {}", hv.now());
}
