//! End-to-end appliance test: HTTP server + client over the full stack.

use mirage_http::{client, HandlerFuture, HttpConnection, HttpServer, Request, Response, Router};
use mirage_devices::netfront::CopyDiscipline;
use mirage_devices::Backend;
use mirage_devices::{DriverDomain, Xenstore};
use mirage_hypervisor::{Dur, Hypervisor, Time};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage_runtime::UnikernelGuest;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 80);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 99);

#[test]
fn web_appliance_serves_get_and_post() {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.create_domain("dom0", 512, Box::new(DriverDomain::new(xs.clone())));

    let (front_s, nh_s) =
        Backend::XenRing.net(xs.clone(), "web", Mac::local(80).0, CopyDiscipline::ZeroCopy);
    let mut appliance = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_s, StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let router = Router::new()
                .get("/", |_req: Request| -> HandlerFuture {
                    Box::pin(async { Response::ok("text/html", b"<h1>mirage</h1>".to_vec()) })
                })
                .post("/echo", |req: Request| -> HandlerFuture {
                    Box::pin(async move { Response::ok("application/octet-stream", req.body) })
                });
            let server = HttpServer::new(router);
            let listener = stack.tcp_listen(80).await.unwrap();
            server.serve(rt2, listener).await
        })
    });
    appliance.add_device(front_s);
    hv.create_domain("web-appliance", 32, Box::new(appliance));

    let (front_c, nh_c) =
        Backend::XenRing.net(xs.clone(), "cli", Mac::local(99).0, CopyDiscipline::ZeroCopy);
    let mut client_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_c, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            // Keep-alive connection: several requests on one stream.
            let mut conn = HttpConnection::open(&stack, SERVER_IP, 80).await.unwrap();
            for _ in 0..3 {
                let resp = conn.request(&Request::get("/")).await.unwrap();
                assert_eq!(resp.status, 200);
                assert_eq!(resp.body, b"<h1>mirage</h1>");
            }
            let resp = conn
                .request(&Request::post("/echo", b"ping pong".to_vec()))
                .await
                .unwrap();
            assert_eq!(resp.body, b"ping pong");
            let resp = conn.request(&Request::get("/missing")).await.unwrap();
            assert_eq!(resp.status, 404);
            conn.close().await;
            // One-shot helper with connection: close.
            let resp = client::get(&stack, SERVER_IP, 80, "/").await.unwrap();
            assert_eq!(resp.status, 200);
            0
        })
    });
    client_guest.add_device(front_c);
    let cdom = hv.create_domain("httperf", 32, Box::new(client_guest));

    hv.run_until(Time::ZERO + Dur::secs(30));
    assert_eq!(hv.exit_code(cdom), Some(0));
}
