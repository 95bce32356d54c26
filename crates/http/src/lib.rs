//! The Mirage HTTP suite for mirage-rs (paper Table 1; Figures 12, 13).
//!
//! HTTP/1.1 framing with incremental parsers ([`wire`]), a per-connection
//! lightweight-thread server with keep-alive and a code-as-configuration
//! router ([`server`]), and the httperf-style client ([`client`]). The
//! static-file and dynamic ("Twitter-like") appliances of the paper's
//! evaluation are assembled from these pieces in `mirage-core` and driven
//! by the Figure 12/13 benchmarks.

pub mod client;
pub mod server;
pub mod wire;

pub use client::{ClientError, HttpConnection};
pub use server::{Handler, HandlerFuture, HttpServer, Router};
pub use wire::{HttpError, Method, Request, RequestParser, Response, ResponseParser};
