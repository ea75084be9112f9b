//! Distributed request tracing: trace contexts minted at admission and
//! a per-thread **flight recorder** of completed trace trees.
//!
//! # Model
//!
//! A [`TraceContext`] is minted once per admitted request (128-bit
//! trace id and sampled flag). The worker that picks the request up
//! opens its span-tree root with [`crate::span::trace_root`], which
//! backdates the root to the admission instant so queue wait is
//! *inside* the trace window. The recorder is the only place a finished
//! tree is kept. When the root closes, the tree becomes a
//! [`TraceRecord`] and is kept iff it was head-sampled at mint time
//! (every [`trace_sample_every`]-th mint) **or** its total duration
//! crossed the slow threshold — tail-based capture, so the traces worth
//! explaining are always retrievable even at a sparse head-sampling
//! stride.
//!
//! Records land in a bounded per-thread ring ([`TRACE_RING_CAP`]):
//! each ring is written only by its owner thread, so the mutex guarding
//! it is effectively uncontended on the hot path and is only ever
//! contended by an explicit [`trace_snapshot`] drain. Snapshots are
//! non-destructive: the explorer, the wire `traces` request and the CLI
//! can all read the same recent window.

use crate::span::SpanTree;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-thread flight-recorder ring capacity; oldest records fall off.
pub const TRACE_RING_CAP: usize = 64;

/// Default head-sampling stride: every 64th minted context is sampled.
const DEFAULT_TRACE_SAMPLE_EVERY: u64 = 64;

static TRACE_SAMPLE_EVERY: AtomicU64 = AtomicU64::new(DEFAULT_TRACE_SAMPLE_EVERY);
static MINTED: AtomicU64 = AtomicU64::new(0);

/// Keep every `n`-th minted trace regardless of duration (head
/// sampling); `1` keeps every trace, `0` disables head sampling (slow
/// traces are still tail-captured).
pub fn set_trace_sample_every(n: u64) {
    TRACE_SAMPLE_EVERY.store(n, Ordering::SeqCst);
}

/// The current head-sampling stride.
pub fn trace_sample_every() -> u64 {
    TRACE_SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// The identity a request carries through the fleet: minted once at
/// admission, threaded through the worker pool and across the shard
/// scatter-gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id; `0` means "untraced".
    pub trace_id: u128,
    /// Head-sampling decision, made at mint time so every layer agrees.
    pub sampled: bool,
}

/// SplitMix64: the id generator. Statistically strong enough for
/// collision-free ids at any realistic request rate, and dependency
/// free.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        splitmix64(nanos ^ (std::process::id() as u64) << 32)
    })
}

impl TraceContext {
    /// An untraced context (id 0, never sampled): what disabled
    /// telemetry mints.
    pub fn none() -> TraceContext {
        TraceContext {
            trace_id: 0,
            sampled: false,
        }
    }

    /// Mint a fresh context at admission: unique id plus the
    /// head-sampling decision for this request.
    pub fn mint() -> TraceContext {
        if !crate::enabled() {
            return TraceContext::none();
        }
        let n = MINTED.fetch_add(1, Ordering::Relaxed);
        let lo = splitmix64(process_seed() ^ n);
        let hi = splitmix64(lo ^ 0xa5a5_a5a5_a5a5_a5a5);
        let trace_id = (((hi as u128) << 64) | lo as u128).max(1);
        let every = trace_sample_every();
        TraceContext {
            trace_id,
            sampled: every > 0 && n.is_multiple_of(every),
        }
    }
}

/// The canonical textual form of a trace id: 32 lowercase hex digits.
pub fn format_trace_id(id: u128) -> String {
    format!("{id:032x}")
}

/// Parse a trace id in the [`format_trace_id`] form (leading zeros may
/// be omitted).
pub fn parse_trace_id(s: &str) -> Option<u128> {
    if s.is_empty() || s.len() > 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// One completed, kept trace: the identity, why it was kept, and the
/// full span tree (every shard leg of a scatter included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The minted trace id.
    pub trace_id: u128,
    /// Request label (the wire request kind, e.g. `shortlist`).
    pub label: &'static str,
    /// Kept by head sampling.
    pub sampled: bool,
    /// Kept by tail capture (total ≥ slow threshold).
    pub slow: bool,
    /// Root duration, ns.
    pub total_ns: u64,
    /// The request's span tree.
    pub tree: SpanTree,
}

#[derive(Default)]
struct Ring {
    records: Mutex<VecDeque<TraceRecord>>,
}

/// Every thread's ring, for snapshotting. Rings outlive their owner
/// thread (bounded by thread count × [`TRACE_RING_CAP`] records).
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

thread_local! {
    static RING: Arc<Ring> = {
        let ring = Arc::new(Ring::default());
        RINGS.lock().expect("trace rings").push(Arc::clone(&ring));
        ring
    };
}

/// File a kept trace into the calling thread's flight-recorder ring.
pub(crate) fn record(rec: TraceRecord) {
    RING.with(|ring| {
        let mut q = ring.records.lock().expect("trace ring");
        if q.len() == TRACE_RING_CAP {
            q.pop_front();
        }
        q.push_back(rec);
    });
}

fn all_records() -> Vec<TraceRecord> {
    let rings: Vec<Arc<Ring>> = RINGS.lock().expect("trace rings").clone();
    let mut out = Vec::new();
    for ring in rings {
        out.extend(ring.records.lock().expect("trace ring").iter().cloned());
    }
    out
}

/// A non-destructive snapshot of the flight recorder: up to `limit`
/// records across every thread's ring, slowest first.
pub fn trace_snapshot(limit: usize) -> Vec<TraceRecord> {
    let mut records = all_records();
    records.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then(a.trace_id.cmp(&b.trace_id))
    });
    records.truncate(limit);
    records
}

/// Look one trace up by id across every ring.
pub fn find_trace(trace_id: u128) -> Option<TraceRecord> {
    all_records().into_iter().find(|r| r.trace_id == trace_id)
}

/// Clear every flight-recorder ring (tests and benches).
pub fn clear_traces() {
    let rings: Vec<Arc<Ring>> = RINGS.lock().expect("trace rings").clone();
    for ring in rings {
        ring.records.lock().expect("trace ring").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_render_round_trip() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.trace_id, 0);
        let text = format_trace_id(a.trace_id);
        assert_eq!(text.len(), 32);
        assert_eq!(parse_trace_id(&text), Some(a.trace_id));
        assert_eq!(parse_trace_id("dead"), Some(0xdead));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("not hex"), None);
        assert_eq!(
            parse_trace_id("100000000000000000000000000000000"),
            None,
            "33 hex digits overflow"
        );
    }

    #[test]
    fn ring_keeps_the_most_recent_records_bounded() {
        clear_traces();
        for i in 0..(TRACE_RING_CAP as u64 + 8) {
            record(TraceRecord {
                trace_id: u128::from(i) + 1,
                label: "test",
                sampled: true,
                slow: false,
                total_ns: i,
                tree: SpanTree {
                    spans: vec![crate::span::SpanRecord {
                        name: "r",
                        parent: None,
                        start_ns: 0,
                        dur_ns: i,
                        shard: None,
                    }],
                },
            });
        }
        let snap = trace_snapshot(usize::MAX);
        assert_eq!(snap.len(), TRACE_RING_CAP);
        // Slowest first, and the oldest (smallest total) records evicted.
        assert_eq!(snap[0].total_ns, TRACE_RING_CAP as u64 + 7);
        assert!(snap.iter().all(|r| r.total_ns >= 8));
        let id = snap[3].trace_id;
        assert_eq!(find_trace(id).expect("by id").trace_id, id);
        assert!(find_trace(u128::MAX).is_none());
        clear_traces();
        assert!(trace_snapshot(usize::MAX).is_empty());
    }
}
