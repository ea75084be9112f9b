//! hft-serve: a concurrent analysis query service over the ULS portal
//! and the shared [`AnalysisSession`](hft_core::session::AnalysisSession).
//!
//! The crate is layered, transport-last:
//!
//! 1. [`api`] — the typed [`Request`]/[`Response`]
//!    enums, declared once as a table from which `codec` generates both
//!    the deterministic JSON codec and the [`binwire`] binary codec.
//! 2. [`service`] — the in-process query engine; TCP is a wrapper around
//!    [`Service::handle`](service::Service::handle). Its session and
//!    race memos ([`hft_core::memo`]) make concurrent identical cold
//!    work run once.
//! 3. [`pool`] — bounded FIFO admission with explicit `Overloaded`
//!    backpressure; never unbounded buffering.
//! 4. [`wire`] + [`evloop`] + [`server`] — length-prefixed frames over
//!    TCP, one readiness loop answering every connection in request
//!    order, and a blocking/pipelining client.
//! 5. [`router`] — the handler every server runs: a fleet of shards,
//!    one for a single corpus, each following an ingest
//!    [`SnapshotStore`](hft_ingest::SnapshotStore) with one
//!    [`Service`] per published corpus (only relabelled when a publish
//!    keeps the corpus), so session memoization can never serve a
//!    stale corpus. [`Request::dispatch`] decides each request's route.
//!
//! Observability lives in [`stats`]: every admission, rejection, queue
//! wait, service time, and flight outcome (led, or coalesced onto
//! another request's memo fill) is counted and exposed through the
//! `stats` request and the shutdown dump.

// Unsafe is denied crate-wide; the one exception is the raw epoll
// syscall shim in `poll::sys`, which carries a module-scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod binwire;
mod codec;
pub mod evloop;
pub mod json;
pub mod poll;
pub mod pool;
pub mod router;
pub mod server;
pub mod service;
pub mod stats;
pub mod wire;

pub use api::{Dispatch, Request, Response, WireSpan, WireTrace};
pub use binwire::Proto;
pub use evloop::{ConnDriver, DriverCx, DriverFactory, ExtraListener};
pub use router::ShardRouter;
pub use server::{Client, ServeConfig, Server};
pub use service::{Handler, Service};
pub use stats::{ServeSnapshot, ServeStats};
