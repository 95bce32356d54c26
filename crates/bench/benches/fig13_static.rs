//! Figure 13 — "Static page serving performance, comparing Mirage and
//! Apache2 running on Linux" across vCPU splits of a 6-CPU host, plus a
//! Criterion measurement of the real HTTP server request path.

use mirage_baseline::StaticWebConfig;
use mirage_bench::report;
use mirage_http::{HandlerFuture, HttpServer, Request, RequestParser, Response, Router};
use mirage_hypervisor::CostTable;

fn print_figure() {
    report::banner("Figure 13", "static page serving (connections/s)");
    let costs = CostTable::defaults();
    let mut rows = Vec::new();
    for cfg in StaticWebConfig::all() {
        rows.push(vec![
            cfg.label().to_owned(),
            report::f(cfg.throughput_cps(&costs), 0),
        ]);
    }
    report::table(&["Configuration", "conns/s"], &rows);
    println!("paper: Linux 6x1 > 2x3 > 1x6; Mirage's 6 unikernels exceed all");
}

fn main() {
    print_figure();
    let mut c = mirage_bench::criterion();
    // Real wall-clock cost of parsing + routing + encoding one request.
    let router = Router::new().get("/", |_req: Request| -> HandlerFuture {
        Box::pin(async { Response::ok("text/html", vec![b'x'; 4096]) })
    });
    let server = HttpServer::new(router);
    let wire = Request::get("/").encode();
    c.bench_function("fig13/real_http_parse_route_encode", |b| {
        b.iter(|| {
            let mut parser = RequestParser::new();
            parser.feed(&wire[..]);
            let req = parser.take().unwrap().unwrap();
            let _ = mirage_testkit::bench::black_box(req);
            let _ = mirage_testkit::bench::black_box(&server);
        })
    });
    c.final_summary();
}
