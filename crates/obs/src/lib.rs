//! Workspace-wide observability with zero external dependencies.
//!
//! Three pillars, sized for a hot path that must not notice them:
//!
//! * **Metrics** — monotonic [`Counter`]s, signed [`Gauge`]s and
//!   log-bucketed [`Histogram`]s (HDR-style: fixed memory, bounded
//!   relative error, mergeable shards). Recording is a few relaxed
//!   atomic operations; handles are resolved once from the global
//!   [`Registry`] and cached, so the hot path never touches a lock.
//! * **Spans** — scoped guards ([`span()`]) that capture nested timing
//!   trees per thread. Completed trees are sampled into a per-thread
//!   ring buffer; any tree whose root exceeds the slow threshold is
//!   pushed to a global **slow-query log** ([`take_slow_queries`]).
//! * **Traces** — a [`TraceContext`] minted at admission
//!   ([`TraceContext::mint`]) rides the request through queues, worker
//!   pools and shard fan-outs; kept trees (head-sampled at 1/N or
//!   tail-captured over the slow threshold) land in a per-thread
//!   flight recorder ([`trace_snapshot`], [`find_trace`]).
//! * **Exposition** — deterministic JSON ([`expo::render_json`]) and
//!   Prometheus-style text ([`expo::render_prometheus`]) of a
//!   [`RegistrySnapshot`], with histogram p50/p90/p99/p999.
//!
//! A process-wide kill switch ([`set_enabled`]) turns every recording
//! path into an early return, and the `off` cargo feature compiles the
//! same paths out entirely — the overhead bench compares the two
//! against the enabled default to bound instrumentation cost.

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
    annotate, annotate_since, child_span, sample_every, set_sample_every, set_slow_threshold_ns,
    slow_threshold_ns, span, span_sharded, take_samples, take_slow_queries, trace_root, SpanGuard,
    SpanRecord, SpanTree,
};
pub use trace::{
    clear_traces, find_trace, format_trace_id, parse_trace_id, set_trace_sample_every,
    trace_sample_every, trace_snapshot, TraceContext, TraceRecord,
};

#[cfg(not(feature = "off"))]
static ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Process-wide recording switch. Disabling turns every counter, gauge,
/// histogram and span record into an early return (structural state the
/// callers keep themselves — e.g. per-server snapshots — is unaffected).
pub fn set_enabled(on: bool) {
    #[cfg(not(feature = "off"))]
    ENABLED.store(on, std::sync::atomic::Ordering::SeqCst);
    #[cfg(feature = "off")]
    let _ = on;
}

/// Whether recording is currently on. Always `false` when the crate is
/// built with the `off` feature (the compiled-out baseline).
#[inline]
pub fn enabled() -> bool {
    #[cfg(not(feature = "off"))]
    {
        ENABLED.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(feature = "off")]
    {
        false
    }
}
