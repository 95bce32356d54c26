//! `http_churn`: Figure-12-style sessions against an `HttpServer` +
//! `Tree<BlockLog<_>>` appliance, the only workload on the virtio ABI
//! (net and blk). Four client tasks in one client domain; each session is
//! a new connection, one `POST /tweet`, eight `GET /tweet?k=`, one
//! `GET /static/16k`, close.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mirage::devices::{Backend, DiskProfile, DriverDomain, NetProfile, Xenstore};
use mirage::http::{HandlerFuture, HttpServer, Request, Response, ResponseParser, Router};
use mirage::hypervisor::{Dur, Hypervisor};
use mirage::net::stack::StackStats;
use mirage::net::tcp::TcpStats;
use mirage::net::{Ipv4Addr, Mac, PktBuf, Stack, StackConfig, TcpStream};
use mirage::runtime::channel::{self, Sender};
use mirage::runtime::{Runtime, UnikernelGuest};
use mirage::storage::{BlkDevice, BlockLog, Tree, TreeError};
use mirage_testkit::rng::Rng;

use crate::hist::Histogram;
use crate::span;
use crate::world::{
    add_tcp, observable_net, value_for, Control, Gate, Measured, Outcome, Sources, TracedBlk,
    Window, Windows, World, Zipf,
};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 80);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 99);
/// Tweets preloaded in set-up.
pub const PRELOADED: usize = 1_500;
const CLIENTS: usize = 4;
/// Sessions per client task per repetition (10 requests each).
pub const SESSIONS_PER_CLIENT: usize = 125;
const GETS_PER_SESSION: usize = 8;
const TWEET_LEN: usize = 140;
const STATIC_LEN: usize = 16 * 1024;
const DISK_SECTORS: u64 = 1 << 22;
/// Carries the caller's `op` span id to the handler.
const OP_HEADER: &str = "x-op";

type Store = Tree<BlockLog<TracedBlk<BlkDevice>>>;

fn tweet_key(k: u64) -> String {
    format!("t{k:08}")
}

/// One queued `tree.set`: the append-only tree takes one writer at a time
/// (two interleaved `set`s would both extend the same root), so POSTs from
/// concurrent connections funnel through one writer task.
struct SetJob {
    key: Vec<u8>,
    value: Vec<u8>,
    scope: (u64, u64),
    done: Sender<Result<(), TreeError>>,
}

/// Opens the `http.handler` span under the caller's `op` named in the
/// request header.
fn handler_span(req: &Request, rt: &Runtime) -> (u64, span::Open) {
    let op = req
        .header(OP_HEADER)
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .unwrap_or(0);
    (op, span::open(span::HTTP_HANDLER, op, op, rt.now()))
}

fn router(rt: &Runtime, tree: &Store, sets: Sender<SetJob>, blob: Arc<Vec<u8>>) -> Router {
    let (rt_post, rt_get, rt_static) = (rt.clone(), rt.clone(), rt.clone());
    let tree_get = tree.clone();
    Router::new()
        .post("/tweet", move |req: Request| -> HandlerFuture {
            let (rt, sets) = (rt_post.clone(), sets.clone());
            Box::pin(async move {
                let (op, handler) = handler_span(&req, &rt);
                let Some(key) = req.split_query().1.and_then(|q| q.strip_prefix("k=")) else {
                    return Response::status(400);
                };
                let call = span::open(span::STORAGE_CALL, op, handler.id(), rt.now());
                let (done, mut stored) = channel::channel();
                let job = SetJob {
                    key: key.as_bytes().to_vec(),
                    value: req.body.clone(),
                    scope: (op, call.id()),
                    done,
                };
                let ok = sets.send(job).is_ok() && matches!(stored.recv().await, Ok(Ok(())));
                call.close(rt.now());
                handler.close(rt.now());
                Response::status(if ok { 201 } else { 500 })
            })
        })
        .get("/tweet", move |req: Request| -> HandlerFuture {
            let (rt, tree) = (rt_get.clone(), tree_get.clone());
            Box::pin(async move {
                let (op, handler) = handler_span(&req, &rt);
                let Some(key) = req.split_query().1.and_then(|q| q.strip_prefix("k=")) else {
                    return Response::status(400);
                };
                let call = span::open(span::STORAGE_CALL, op, handler.id(), rt.now());
                let found = span::scope(op, call.id(), tree.get(key.as_bytes())).await;
                call.close(rt.now());
                handler.close(rt.now());
                match found {
                    Ok(Some(body)) => Response::ok("text/plain", body),
                    Ok(None) => Response::status(404),
                    Err(_) => Response::status(500),
                }
            })
        })
        .get("/static/16k", move |req: Request| -> HandlerFuture {
            let (rt, blob) = (rt_static.clone(), Arc::clone(&blob));
            Box::pin(async move {
                let (_, handler) = handler_span(&req, &rt);
                let body = blob.to_vec();
                handler.close(rt.now());
                Response::ok("application/octet-stream", body)
            })
        })
}

/// The client half of one session's connection: `HttpConnection`'s loop
/// over the public `TcpStream` + `ResponseParser`, kept here so the
/// connection's `TcpStats` can be read before it closes (`HttpConnection`
/// owns its stream privately).
struct Session {
    stream: TcpStream,
    parser: ResponseParser,
}

impl Session {
    async fn request(&mut self, req: &Request) -> Option<Response> {
        self.stream.write_buf(PktBuf::from_vec(req.encode()));
        loop {
            if let Some(resp) = self.parser.take().ok()? {
                return Some(resp);
            }
            self.parser.feed(self.stream.read().await?);
        }
    }

    /// Reads the connection's counters and closes it. The close is not
    /// awaited: the active closer sits out TIME-WAIT (2 s of virtual time),
    /// which a session loop — like httperf — does not wait for.
    async fn finish(self) -> TcpStats {
        let stats = self.stream.stats().await.unwrap_or_default();
        self.stream.close();
        stats
    }
}

#[derive(Default)]
struct ClientPart {
    m: Measured,
    window: Option<Window>,
    tcp: TcpStats,
}

pub fn build(seed: u64) -> World {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(400_000_000);
    let dom0 =
        DriverDomain::with_profiles(xs.clone(), NetProfile::default(), DiskProfile::pcie_ssd());
    let mut sources = Sources {
        driver: Some(dom0.stats_handle()),
        ..Sources::default()
    };
    hv.create_domain("dom0", 512, Box::new(dom0));

    let control = Arc::new(Control::default());
    let parts: Arc<Mutex<Vec<ClientPart>>> = Arc::new(Mutex::new(Vec::new()));
    let stacks: Arc<Mutex<Vec<StackStats>>> = Arc::new(Mutex::new(Vec::new()));
    let http_stats: Arc<Mutex<Option<Arc<mirage::http::server::HttpStats>>>> =
        Arc::new(Mutex::new(None));
    // The model of the store's preloaded part, shared read-only by the
    // clients; each adds the tweets it posts itself to its own copy-on-top.
    let preloaded: Arc<BTreeMap<String, Vec<u8>>> = Arc::new(
        (0..PRELOADED as u64)
            .map(|k| (tweet_key(k), value_for(seed, k, 0, TWEET_LEN)))
            .collect(),
    );

    // Appliance: virtio net + virtio blk.
    let (driver_s, mut handles_s, probes_s) =
        observable_net(Backend::Virtio, &xs, "web0", Mac::local(80).0, 1);
    sources.nets.extend(probes_s);
    let (blkf, bh) = Backend::Virtio.blk(xs.clone(), "vda", DISK_SECTORS);
    let (srv_report_tx, mut srv_report) = channel::channel::<()>();
    let (ctl, stk, tree_slot, model, stats_out) = (
        Arc::clone(&control),
        Arc::clone(&stacks),
        Arc::clone(&sources.tree),
        Arc::clone(&preloaded),
        Arc::clone(&http_stats),
    );
    let mut appliance = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, handles_s.remove(0), StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let disk = TracedBlk::new(BlkDevice::new(&rt2, bh), rt2.clone());
            let tree: Store = Tree::new(BlockLog::new(disk, 0));
            for (key, body) in model.iter() {
                tree.set(key.as_bytes(), body).await.expect("preload");
            }
            let stats_of = tree.clone();
            *tree_slot.lock().expect("tree slot") = Some(Box::new(move || stats_of.stats()));

            let (sets, mut jobs) = channel::channel::<SetJob>();
            let writer = tree.clone();
            rt2.spawn(async move {
                while let Ok(job) = jobs.recv().await {
                    let set = writer.set(&job.key, &job.value);
                    let _ = job
                        .done
                        .send(span::scope(job.scope.0, job.scope.1, set).await);
                }
            });
            let mut blob = vec![0u8; STATIC_LEN];
            Rng::for_stream(seed, "http-static").fill_bytes(&mut blob);
            let server = HttpServer::new(router(&rt2, &tree, sets, Arc::new(blob)));
            *stats_out.lock().expect("http stats") = Some(server.stats());
            let listener = stack.tcp_listen(80).await.expect("port 80");
            rt2.spawn(server.serve(rt2.clone(), listener));
            ctl.mark_ready();
            let _ = srv_report.recv().await;
            if let Ok(s) = stack.stack_stats().await {
                stk.lock().expect("stacks").push(s);
            }
            ctl.mark_reported();
            loop {
                rt2.sleep(Dur::secs(3600)).await;
            }
        })
    });
    appliance.add_device(driver_s);
    appliance.add_device(blkf);
    sources.runtimes.push(appliance.runtime().clone());
    let srv_dom = hv.create_domain("web-appliance", 64, Box::new(appliance));

    // Client domain: four closed-loop session tasks.
    let (driver_c, mut handles_c, probes_c) =
        observable_net(Backend::Virtio, &xs, "httperf", Mac::local(99).0, 1);
    sources.nets.extend(probes_c);
    let (start_tx, mut start) = channel::channel::<()>();
    let (cli_report_tx, mut cli_report) = channel::channel::<()>();
    let (ctl, out, stk, model) = (
        Arc::clone(&control),
        Arc::clone(&parts),
        Arc::clone(&stacks),
        Arc::clone(&preloaded),
    );
    let mut client = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, handles_c.remove(0), StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let zipf = Arc::new(Zipf::new(PRELOADED));
            let mut blob = vec![0u8; STATIC_LEN];
            Rng::for_stream(seed, "http-static").fill_bytes(&mut blob);
            let blob = Arc::new(blob);
            ctl.mark_ready();
            let _ = start.recv().await;
            let requests = CLIENTS * SESSIONS_PER_CLIENT * (2 + GETS_PER_SESSION);
            let windows = Arc::new(Mutex::new(Windows::new(requests as u64)));
            let mut tasks = Vec::new();
            for c in 0..CLIENTS {
                let (stack, rt3, zipf, model, blob, windows) = (
                    stack.clone(),
                    rt2.clone(),
                    Arc::clone(&zipf),
                    Arc::clone(&model),
                    Arc::clone(&blob),
                    Arc::clone(&windows),
                );
                tasks.push(rt2.spawn(async move {
                    client_task(c, seed, stack, rt3, &zipf, &model, &blob, &windows).await
                }));
            }
            for t in tasks {
                let part = t.await;
                out.lock().expect("parts").push(part);
            }
            if let Some(first) = out.lock().expect("parts").first_mut() {
                let all =
                    std::mem::replace(&mut *windows.lock().expect("windows"), Windows::new(1));
                first.m.window_ns = all.finish();
            }
            ctl.mark_done();
            let _ = cli_report.recv().await;
            if let Ok(s) = stack.stack_stats().await {
                stk.lock().expect("stacks").push(s);
            }
            ctl.mark_reported();
            loop {
                rt2.sleep(Dur::secs(3600)).await;
            }
        })
    });
    client.add_device(driver_c);
    sources.runtimes.push(client.runtime().clone());
    let cli_dom = hv.create_domain("httperf", 32, Box::new(client));

    World {
        hv,
        control,
        ready_target: 2,
        done_target: 1,
        start: vec![Gate::new(start_tx, cli_dom)],
        report: vec![
            Gate::new(srv_report_tx, srv_dom),
            Gate::new(cli_report_tx, cli_dom),
        ],
        sources,
        finish: Box::new(move || {
            let mut out = Outcome::default();
            let mut window: Option<Window> = None;
            for part in std::mem::take(&mut *parts.lock().expect("parts")) {
                let m = &mut out.measured;
                m.attempted += part.m.attempted;
                m.failed += part.m.failed;
                m.payload_bytes += part.m.payload_bytes;
                m.storage_gets += part.m.storage_gets;
                m.storage_sets += part.m.storage_sets;
                m.lat.merge(&part.m.lat);
                m.window_ns.extend(&part.m.window_ns);
                add_tcp(&mut out.tcp, &part.tcp);
                if let Some(w) = part.window {
                    window = Some(window.map_or(w, |acc| acc.union(w)));
                }
            }
            if let Some(w) = window {
                w.write_into(&mut out.measured);
            }
            out.stacks = std::mem::take(&mut *stacks.lock().expect("stacks"));
            if let Some(s) = http_stats.lock().expect("http stats").as_ref() {
                out.http = Some((
                    s.connections.load(Ordering::Relaxed),
                    s.requests.load(Ordering::Relaxed),
                    s.errors.load(Ordering::Relaxed),
                ));
            }
            out
        }),
    }
}

#[allow(clippy::too_many_arguments)]
async fn client_task(
    c: usize,
    seed: u64,
    stack: Stack,
    rt: Runtime,
    zipf: &Zipf,
    preloaded: &BTreeMap<String, Vec<u8>>,
    blob: &[u8],
    windows: &Mutex<Windows>,
) -> ClientPart {
    let mut rng = Rng::for_stream(seed, &format!("http-client-{c}"));
    // Tweets this client posted: nobody else touches those keys, so the
    // model never depends on how concurrent sessions interleave.
    let mut own: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut part = ClientPart::default();
    let mut lat = Histogram::new();
    let (virt_start, wall_start) = (rt.now(), Instant::now());
    let mut sequence = (c as u64) << 32;
    for s in 0..SESSIONS_PER_CLIENT {
        let mut plan: Vec<(Request, u16, Option<Vec<u8>>)> =
            Vec::with_capacity(2 + GETS_PER_SESSION);
        let posted = PRELOADED as u64 + ((c * SESSIONS_PER_CLIENT + s) as u64);
        let body = value_for(seed, posted, 1, TWEET_LEN);
        own.insert(tweet_key(posted), body.clone());
        plan.push((
            Request::post(format!("/tweet?k={}", tweet_key(posted)), body),
            201,
            None,
        ));
        for g in 0..GETS_PER_SESSION {
            // The last get of a session reads back one of the client's
            // own tweets; the others draw from the preloaded store.
            let key = if g + 1 == GETS_PER_SESSION {
                own.keys()
                    .nth(rng.gen_index(own.len()))
                    .expect("own tweet")
                    .clone()
            } else {
                tweet_key(zipf.sample(&mut rng) as u64)
            };
            let want = own.get(&key).or_else(|| preloaded.get(&key)).cloned();
            plan.push((Request::get(format!("/tweet?k={key}")), 200, want));
        }
        plan.push((Request::get("/static/16k"), 200, Some(blob.to_vec())));

        let Ok(stream) = stack.tcp_connect(SERVER_IP, 80).await else {
            part.m.attempted += plan.len() as u64;
            part.m.failed += plan.len() as u64;
            windows.lock().expect("windows").advance(plan.len() as u64);
            continue;
        };
        let mut session = Session {
            stream,
            parser: ResponseParser::new(),
        };
        for (mut req, status, want_body) in plan {
            sequence += 1;
            let issued = rt.now();
            let op = span::open_root(span::OP, issued);
            // The handler parents its span on the caller's, whose id rides
            // in a fixed-width header on every run (a sequence number when
            // not tracing), so traced and timed runs send the same bytes.
            let id = if op.id() == 0 { sequence } else { op.id() };
            req.headers.push((OP_HEADER.into(), format!("{id:016x}")));
            let sent = req.body.len();
            let resp = session.request(&req).await;
            let now = rt.now();
            op.close(now);
            lat.record(now.saturating_since(issued).as_nanos());
            part.m.attempted += 1;
            match req.method {
                mirage::http::Method::Post => part.m.storage_sets += 1,
                _ if req.path.starts_with("/tweet") => part.m.storage_gets += 1,
                _ => {}
            }
            let ok = resp.as_ref().is_some_and(|r| {
                r.status == status && want_body.as_ref().is_none_or(|b| *b == r.body)
            });
            part.m.failed += u64::from(!ok);
            part.m.payload_bytes += (sent + resp.map_or(0, |r| r.body.len())) as u64;
            windows.lock().expect("windows").advance(1);
        }
        add_tcp(&mut part.tcp, &session.finish().await);
    }
    part.window = Some(Window {
        virt_start,
        virt_end: rt.now(),
        wall_start,
        wall_end: Instant::now(),
    });
    part.m.lat = lat;
    part
}
