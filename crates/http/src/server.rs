//! The HTTP server library: an accept loop spawning one lightweight
//! thread per connection, with keep-alive and a pluggable async handler —
//! the skeleton of the paper's web appliances (Figures 12 and 13).

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mirage_net::{PktBuf, TcpListener, TcpStream};
use mirage_runtime::Runtime;

use crate::wire::{Request, RequestParser, Response};

/// Boxed handler future.
pub type HandlerFuture = Pin<Box<dyn Future<Output = Response> + Send>>;

/// A request handler. Implemented for closures returning boxed futures.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for one request.
    fn handle(&self, req: Request) -> HandlerFuture;
}

impl<F> Handler for F
where
    F: Fn(Request) -> HandlerFuture + Send + Sync + 'static,
{
    fn handle(&self, req: Request) -> HandlerFuture {
        self(req)
    }
}

/// Server counters (the Figure 12/13 measurements).
#[derive(Debug, Default)]
pub struct HttpStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests served.
    pub requests: AtomicU64,
    /// Responses with status >= 400.
    pub errors: AtomicU64,
}

/// The HTTP server: accepts connections and runs the handler per request.
pub struct HttpServer {
    handler: Arc<dyn Handler>,
    stats: Arc<HttpStats>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HttpServer({} reqs)",
            self.stats.requests.load(Ordering::Relaxed)
        )
    }
}

impl Clone for HttpServer {
    fn clone(&self) -> Self {
        HttpServer {
            handler: Arc::clone(&self.handler),
            stats: Arc::clone(&self.stats),
        }
    }
}

impl HttpServer {
    /// A server around `handler`.
    pub fn new(handler: impl Handler) -> HttpServer {
        HttpServer {
            handler: Arc::new(handler),
            stats: Arc::new(HttpStats::default()),
        }
    }

    /// Shared counters handle.
    pub fn stats(&self) -> Arc<HttpStats> {
        Arc::clone(&self.stats)
    }

    /// Accept loop: runs until the listener dies. Spawns a thread per
    /// connection.
    pub async fn serve(self, rt: Runtime, mut listener: TcpListener) -> i64 {
        loop {
            let Ok(stream) = listener.accept().await else {
                return 0;
            };
            self.stats.connections.fetch_add(1, Ordering::Relaxed);
            let conn_server = self.clone();
            rt.spawn(async move {
                conn_server.serve_connection(stream).await;
            });
        }
    }

    /// Serves one connection until close or protocol error.
    pub async fn serve_connection(&self, mut stream: TcpStream) {
        let mut parser = RequestParser::new();
        'conn: loop {
            // Parse any requests already buffered (pipelining).
            loop {
                match parser.take() {
                    Ok(Some(req)) => {
                        let keep = req.keep_alive;
                        let response = self.handler.handle(req).await;
                        self.stats.requests.fetch_add(1, Ordering::Relaxed);
                        if response.status >= 400 {
                            self.stats.errors.fetch_add(1, Ordering::Relaxed);
                        }
                        // Adopting the encoded message as a PktBuf lets the
                        // stack slice segments out of it without re-copying.
                        stream.write_buf(PktBuf::from_vec(response.encode()));
                        if !keep {
                            break 'conn;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        stream.write_buf(PktBuf::from_vec(Response::status(400).encode()));
                        break 'conn;
                    }
                }
            }
            match stream.read().await {
                Some(chunk) => parser.feed(chunk),
                None => break, // peer closed
            }
        }
        // Whoever ended it, flush our side down cleanly.
        stream.close();
        stream.wait_closed().await;
    }
}

/// A tiny path router — configuration as code (paper §2.1: configuration
/// is "explicit and programmable in a host language").
pub struct Router {
    routes: Vec<(crate::wire::Method, String, Arc<dyn Handler>)>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Router({} routes)", self.routes.len())
    }
}

impl Default for Router {
    fn default() -> Self {
        Router::new()
    }
}

impl Router {
    /// An empty router.
    pub fn new() -> Router {
        Router { routes: Vec::new() }
    }

    /// Registers a GET route (exact path match, query ignored).
    pub fn get(mut self, path: &str, handler: impl Handler) -> Router {
        self.routes
            .push((crate::wire::Method::Get, path.to_owned(), Arc::new(handler)));
        self
    }

    /// Registers a POST route.
    pub fn post(mut self, path: &str, handler: impl Handler) -> Router {
        self.routes
            .push((crate::wire::Method::Post, path.to_owned(), Arc::new(handler)));
        self
    }
}

impl Handler for Router {
    fn handle(&self, req: Request) -> HandlerFuture {
        let (path, _) = req.split_query();
        for (method, route, handler) in &self.routes {
            if *method == req.method && route == path {
                return handler.handle(req);
            }
        }
        Box::pin(async { Response::status(404) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Method;

    fn call(router: &Router, req: Request) -> Response {
        // Handlers in tests are immediate; poll once with a noop waker.
        let mut fut = router.handle(req);
        let waker = std::task::Waker::noop();
        let mut cx = std::task::Context::from_waker(waker);
        match fut.as_mut().poll(&mut cx) {
            std::task::Poll::Ready(r) => r,
            std::task::Poll::Pending => panic!("test handler blocked"),
        }
    }

    fn ok_handler(tag: &'static str) -> impl Handler {
        move |_req: Request| -> HandlerFuture {
            Box::pin(async move { Response::ok("text/plain", tag.as_bytes().to_vec()) })
        }
    }

    #[test]
    fn router_dispatches_by_method_and_path() {
        let router = Router::new()
            .get("/", ok_handler("index"))
            .get("/about", ok_handler("about"))
            .post("/tweet", ok_handler("posted"));
        assert_eq!(call(&router, Request::get("/")).body, b"index");
        assert_eq!(call(&router, Request::get("/about")).body, b"about");
        assert_eq!(
            call(&router, Request::post("/tweet", vec![])).body,
            b"posted"
        );
        assert_eq!(call(&router, Request::get("/missing")).status, 404);
        // Wrong method on a known path.
        let mut req = Request::get("/tweet");
        req.method = Method::Get;
        assert_eq!(call(&router, req).status, 404);
    }

    #[test]
    fn router_ignores_query_strings_for_matching() {
        let router = Router::new().get("/q", ok_handler("q"));
        assert_eq!(call(&router, Request::get("/q?user=5")).body, b"q");
    }
}
