//! Workspace-wide observability with zero external dependencies.
//!
//! Three pillars, sized for a hot path that must not notice them:
//!
//! * **Metrics** — monotonic [`Counter`]s, signed [`Gauge`]s and
//!   log-bucketed [`Histogram`]s (HDR-style: fixed memory, bounded
//!   relative error, mergeable shards). Recording is a few relaxed
//!   atomic operations; handles are resolved once from the global
//!   [`Registry`] and cached, so the hot path never touches a lock.
//! * **Traces** — a [`TraceContext`] minted at admission
//!   ([`TraceContext::mint`]) rides the request through queues, worker
//!   pools and shard fan-outs. The worker opens the request's span tree
//!   with [`trace_root`]; scoped guards ([`span()`]) nest timing spans
//!   inside it and record nothing outside one. Kept trees (head-sampled
//!   at 1/N or tail-captured over the slow threshold) land in a
//!   per-thread flight recorder ([`trace_snapshot`], [`find_trace`]).
//! * **Exposition** — deterministic JSON ([`expo::render_json`]) and
//!   Prometheus-style text ([`expo::render_prometheus`]) of a
//!   [`RegistrySnapshot`], with histogram p50/p90/p99/p999.
//!
//! A process-wide kill switch ([`set_enabled`]) turns every recording
//! path into an early return; the overhead bench compares it against
//! the enabled default to bound instrumentation cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod hist;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod trace;

pub use hist::{Histogram, HistogramShard, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use registry::{global, HistDelta, HistSummary, Registry, RegistryDelta, RegistrySnapshot};
pub use span::{
    annotate, annotate_since, set_slow_threshold_ns, slow_threshold_ns, span, span_sharded,
    trace_root, SpanGuard, SpanRecord, SpanTree,
};
pub use trace::{
    clear_traces, find_trace, format_trace_id, parse_trace_id, set_trace_sample_every,
    trace_sample_every, trace_snapshot, TraceContext, TraceRecord,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Process-wide recording switch. Disabling turns every counter, gauge,
/// histogram and span record into an early return (structural state the
/// callers keep themselves — e.g. per-server snapshots — is unaffected).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
