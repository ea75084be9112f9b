//! hft-http: a hand-rolled, dependency-free HTTP/1.1 layer over the
//! evented serve plane — the user-facing read path the wire protocol
//! never was.
//!
//! The crate adds **no transport of its own**: [`HttpExplorer`] is a
//! [`DriverFactory`](hft_serve::DriverFactory) registered as an extra
//! listener on the serve crate's readiness loop, so HTTP connections
//! share the same poller, pooled buffers, worker pool and admission
//! queue as wire connections — no per-connection threads, no new
//! unsafe.
//!
//! Layering, bottom up:
//!
//! 1. [`parser`] — an incremental request parser with hard caps on
//!    every attacker-controlled dimension and a structured
//!    [`HttpError`] taxonomy; never panics on
//!    arbitrary bytes.
//! 2. [`response`] — status-line + header serialization into pooled
//!    buffers.
//! 3. [`pages`] — data-ink-first HTML: the corpus index, per-licensee
//!    corridor maps (inline `hft-viz` SVG), the scrape funnel, the
//!    small-multiples evolution page, and the live registry dashboard.
//! 4. [`driver`] — the route table and the per-connection
//!    [`ConnDriver`](hft_serve::ConnDriver), including `POST /api`
//!    (wire requests over HTTP, byte-identical answers) and
//!    `GET /metrics` (Prometheus text exposition).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod pages;
pub mod parser;
pub mod response;

pub use driver::HttpExplorer;
pub use parser::{HttpError, HttpRequest, RequestParser};
