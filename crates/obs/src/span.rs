//! Lightweight span tracing: scoped guards capture nested timing trees
//! per thread, completed trees are sampled into a per-thread ring, and
//! any tree whose root exceeds the slow threshold lands in a global
//! slow-query log.
//!
//! # Model
//!
//! [`span`] opens a span on the current thread and returns a guard;
//! dropping the guard closes it. Guards nest lexically (they are
//! `!Send` scope guards), so the per-thread open stack always closes in
//! LIFO order and a finished tree can never contain an orphaned span.
//! When the *root* guard drops, the whole tree is finalized at once:
//!
//! * root duration ≥ [`slow_threshold_ns`] → pushed to the global slow
//!   log (bounded; oldest entries fall off) and `obs.slow_queries` is
//!   bumped in the global registry;
//! * otherwise every `sample_every`-th tree is kept in a per-thread
//!   ring buffer ([`take_samples`]).
//!
//! Trees are per thread by construction. A fan-out request runs its
//! shard legs in turn on the answering thread, so it finalizes as one
//! tree: each leg is an ordinary [`span_sharded`] span, and a span
//! opened without a shard takes its parent's, so everything inside a
//! leg reads that leg's shard.
//!
//! A tree opened with [`trace_root`] additionally carries a
//! [`crate::trace::TraceContext`]; when such a tree finalizes and was
//! head-sampled or slow, a copy is filed into the flight recorder
//! ([`crate::trace`]) keyed by trace id.
//!
//! All bookkeeping is thread-local; the only shared state touched on a
//! hot path is one relaxed load of the kill switch, and the slow-log
//! mutex is taken only when a slow tree actually completes.

use crate::trace::TraceContext;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Slow-log capacity; oldest entries are dropped beyond this.
pub const SLOW_LOG_CAP: usize = 32;
/// Per-thread sampled-tree ring capacity.
pub const SAMPLE_RING_CAP: usize = 16;

/// Default slow threshold: 50 ms.
const DEFAULT_SLOW_NS: u64 = 50_000_000;
/// Default sampling stride: every 64th completed tree.
const DEFAULT_SAMPLE_EVERY: u64 = 64;

static SLOW_NS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_NS);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_EVERY);
static SLOW_LOG: Mutex<VecDeque<SpanTree>> = Mutex::new(VecDeque::new());

/// Set the root-duration threshold (ns) above which a completed tree
/// enters the slow-query log.
pub fn set_slow_threshold_ns(ns: u64) {
    SLOW_NS.store(ns, Ordering::SeqCst);
}

/// The current slow threshold in nanoseconds.
pub fn slow_threshold_ns() -> u64 {
    SLOW_NS.load(Ordering::Relaxed)
}

/// Keep every `n`-th completed (non-slow) tree in the per-thread sample
/// ring; `0` disables sampling.
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n, Ordering::SeqCst);
}

/// The current sampling stride.
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Drain the global slow-query log, oldest first.
pub fn take_slow_queries() -> Vec<SpanTree> {
    SLOW_LOG.lock().expect("slow log").drain(..).collect()
}

/// Drain the calling thread's sampled-tree ring, oldest first.
pub fn take_samples() -> Vec<SpanTree> {
    TLS.with(|t| t.borrow_mut().samples.drain(..).collect())
}

/// One closed span inside a [`SpanTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (dotted taxonomy, e.g. `serve.request`).
    pub name: &'static str,
    /// Index of the parent span within the tree; `None` for the root.
    pub parent: Option<u32>,
    /// Start offset from the root's start, ns.
    pub start_ns: u64,
    /// Duration, ns (u64: negative durations cannot be represented).
    pub dur_ns: u64,
    /// Shard the span ran against, when the work was shard-addressed
    /// (scatter legs, routed single-shard calls, and every span opened
    /// inside one).
    pub shard: Option<u32>,
}

/// A completed per-thread span tree, root first, parents before
/// children (preorder by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// The spans; index 0 is the root.
    pub spans: Vec<SpanRecord>,
}

impl SpanTree {
    /// The root span.
    pub fn root(&self) -> &SpanRecord {
        &self.spans[0]
    }

    /// Total duration (the root's), ns.
    pub fn total_ns(&self) -> u64 {
        self.root().dur_ns
    }

    /// Structural validity: exactly one root at index 0, every parent
    /// precedes its child, and every child runs within its parent's
    /// window. Returns a description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        if self.spans.is_empty() {
            return Err("empty tree".to_string());
        }
        if self.spans[0].parent.is_some() {
            return Err("span 0 is not a root".to_string());
        }
        for (i, s) in self.spans.iter().enumerate().skip(1) {
            let Some(p) = s.parent else {
                return Err(format!("span {i} ({}) is an orphaned second root", s.name));
            };
            let p = p as usize;
            if p >= i {
                return Err(format!("span {i} ({}) has forward parent {p}", s.name));
            }
            let parent = &self.spans[p];
            if s.start_ns < parent.start_ns
                || s.start_ns + s.dur_ns > parent.start_ns + parent.dur_ns
            {
                return Err(format!(
                    "span {i} ({}) [{}, +{}] escapes parent {} ({}) [{}, +{}]",
                    s.name, s.start_ns, s.dur_ns, p, parent.name, parent.start_ns, parent.dur_ns
                ));
            }
        }
        Ok(())
    }

    /// An indented one-span-per-line rendering for logs.
    pub fn render(&self) -> String {
        let mut depth = vec![0usize; self.spans.len()];
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                depth[i] = depth[p as usize] + 1;
            }
            for _ in 0..depth[i] {
                out.push_str("  ");
            }
            out.push_str(s.name);
            out.push(' ');
            out.push_str(&format_ns(s.dur_ns));
            if let Some(shard) = s.shard {
                out.push_str(&format!(" [shard {shard}]"));
            }
            out.push('\n');
        }
        out
    }
}

/// Human-scale duration rendering (`873ns`, `14.2us`, `3.4ms`, `1.20s`).
pub fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

struct ThreadSpans {
    spans: Vec<SpanRecord>,
    open: Vec<u32>,
    root_start: Option<Instant>,
    completed: u64,
    samples: VecDeque<SpanTree>,
    /// Trace identity the current tree was opened with ([`trace_root`]).
    trace: Option<(TraceContext, &'static str)>,
}

impl ThreadSpans {
    /// Open a span under the innermost open one. A span opened without a
    /// shard takes its parent's, so work inside a shard leg reads that
    /// leg's shard.
    fn push_open(&mut self, name: &'static str, start_ns: u64, shard: Option<u32>) {
        let parent = self.open.last().copied();
        let shard = shard.or_else(|| parent.and_then(|p| self.spans[p as usize].shard));
        let idx = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            name,
            parent,
            start_ns,
            dur_ns: 0,
            shard,
        });
        self.open.push(idx);
    }

    /// Attach an already-closed span under the innermost open one (none
    /// open: dropped). Like [`ThreadSpans::push_open`], it takes its
    /// parent's shard.
    fn push_closed(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let shard = self.spans[parent as usize].shard;
        self.spans.push(SpanRecord {
            name,
            parent: Some(parent),
            start_ns,
            dur_ns,
            shard,
        });
    }
}

thread_local! {
    static TLS: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans {
            spans: Vec::new(),
            open: Vec::new(),
            root_start: None,
            completed: 0,
            samples: VecDeque::new(),
            trace: None,
        })
    };
}

fn open_span(name: &'static str, shard: Option<u32>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            active: false,
            _not_send: PhantomData,
        };
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let start_ns = match t.root_start {
            Some(root) => root.elapsed().as_nanos() as u64,
            None => {
                t.root_start = Some(Instant::now());
                0
            }
        };
        t.push_open(name, start_ns, shard);
    });
    SpanGuard {
        active: true,
        _not_send: PhantomData,
    }
}

/// Open a span named `name` on the current thread. Close it by
/// dropping the guard; guards must nest lexically (the guard is not
/// `Send` and should be bound to a scope).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, None)
}

/// Like [`span`], tagging the record with the shard the work is
/// addressed to (scatter legs, routed single-shard calls). Spans opened
/// inside it inherit the shard.
#[inline]
pub fn span_sharded(name: &'static str, shard: u32) -> SpanGuard {
    open_span(name, Some(shard))
}

/// Like [`span`], but records only when a tree is already open on this
/// thread. A lone child would otherwise finalize as a single-span root
/// tree — full tree bookkeeping (two clock reads, finalize, ring
/// bookkeeping) for a record nothing can attribute to a request. Use
/// it for hot-path markers that are only meaningful inside an
/// enclosing traced request.
pub fn child_span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            active: false,
            _not_send: PhantomData,
        };
    }
    let active = TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.open.is_empty() {
            return false;
        }
        let start_ns = match t.root_start {
            Some(root) => root.elapsed().as_nanos() as u64,
            None => 0,
        };
        t.push_open(name, start_ns, None);
        true
    });
    SpanGuard {
        active,
        _not_send: PhantomData,
    }
}

/// Open a **traced root** span: the tree's time origin is backdated to
/// `started` (typically the instant the request was admitted, so queue
/// wait falls inside the window), and the finished tree is filed into
/// the flight recorder under `ctx` when head-sampled or slow. `label`
/// names the request kind on the resulting trace record.
///
/// If a tree is already open on this thread the call degrades to a
/// plain child [`span`] — nested roots cannot re-origin the clock.
pub fn trace_root(
    name: &'static str,
    label: &'static str,
    ctx: TraceContext,
    started: Instant,
) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            active: false,
            _not_send: PhantomData,
        };
    }
    let fresh = TLS.with(|t| {
        let mut t = t.borrow_mut();
        if !t.open.is_empty() {
            return false;
        }
        t.root_start = Some(started);
        if ctx.trace_id != 0 {
            t.trace = Some((ctx, label));
        }
        t.spans.push(SpanRecord {
            name,
            parent: None,
            start_ns: 0,
            dur_ns: 0,
            shard: None,
        });
        t.open.push(0);
        true
    });
    if !fresh {
        return span(name);
    }
    SpanGuard {
        active: true,
        _not_send: PhantomData,
    }
}

/// Attach a pre-measured, already-closed child span to the innermost
/// open span (no-op when no span is open). `start_ns` is the offset
/// from the current tree's time origin. Used for intervals measured
/// before the tree existed, e.g. queue wait under a [`trace_root`]
/// backdated to the enqueue instant.
pub fn annotate(name: &'static str, start_ns: u64, dur_ns: u64) {
    if crate::enabled() {
        TLS.with(|t| t.borrow_mut().push_closed(name, start_ns, dur_ns));
    }
}

/// Like [`annotate`], for the interval from `started` until now: a span
/// whose name is known only once it ends (a memo caller learns it
/// waited rather than filled only when its wait is over).
pub fn annotate_since(name: &'static str, started: Instant) {
    if !crate::enabled() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let Some(root) = t.root_start else {
            return;
        };
        let start_ns = started.saturating_duration_since(root).as_nanos() as u64;
        let end_ns = root.elapsed().as_nanos() as u64;
        t.push_closed(name, start_ns, end_ns.saturating_sub(start_ns));
    });
}

/// The scope guard returned by [`span`]; dropping it closes the span.
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let finished = TLS.with(|t| {
            let mut t = t.borrow_mut();
            let Some(idx) = t.open.pop() else {
                return None; // tree was torn down mid-flight; ignore
            };
            let end_ns = t
                .root_start
                .map(|root| root.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            let rec = &mut t.spans[idx as usize];
            rec.dur_ns = end_ns.saturating_sub(rec.start_ns);
            if !t.open.is_empty() {
                return None;
            }
            // Root closed: take the whole tree.
            let spans = std::mem::take(&mut t.spans);
            t.root_start = None;
            let trace = t.trace.take();
            let tree = SpanTree { spans };
            t.completed += 1;
            let tick = t.completed;
            if tree.total_ns() >= slow_threshold_ns() {
                Some((tree, true, tick, trace))
            } else {
                Some((tree, false, tick, trace))
            }
        });
        let Some((tree, slow, tick, trace)) = finished else {
            return;
        };
        // File a flight-recorder copy before the tree itself moves into
        // the slow log / sample ring (clone only for kept traces).
        if let Some((ctx, label)) = trace {
            if ctx.sampled || slow {
                crate::trace::record(crate::trace::TraceRecord {
                    trace_id: ctx.trace_id,
                    label,
                    sampled: ctx.sampled,
                    slow,
                    total_ns: tree.total_ns(),
                    tree: tree.clone(),
                });
            }
        }
        if slow {
            crate::global().counter("obs.slow_queries").incr();
            let mut log = SLOW_LOG.lock().expect("slow log");
            if log.len() == SLOW_LOG_CAP {
                log.pop_front();
            }
            log.push_back(tree);
        } else {
            let every = sample_every();
            if every > 0 && tick % every == 0 {
                TLS.with(|t| {
                    let mut t = t.borrow_mut();
                    if t.samples.len() == SAMPLE_RING_CAP {
                        t.samples.pop_front();
                    }
                    t.samples.push_back(tree);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests touching the global slow log / sampling knobs live in
    // tests/span_tree.rs (their own process); here only pure helpers.

    #[test]
    fn check_rejects_malformed_trees() {
        let root = SpanRecord {
            name: "r",
            parent: None,
            start_ns: 0,
            dur_ns: 100,
            shard: None,
        };
        assert!(SpanTree { spans: vec![] }.check().is_err());
        assert!(SpanTree {
            spans: vec![root.clone()]
        }
        .check()
        .is_ok());
        // Orphaned second root.
        assert!(SpanTree {
            spans: vec![root.clone(), root.clone()]
        }
        .check()
        .is_err());
        // Child escaping its parent's window.
        let bad_child = SpanRecord {
            name: "c",
            parent: Some(0),
            start_ns: 90,
            dur_ns: 20,
            shard: None,
        };
        assert!(SpanTree {
            spans: vec![root.clone(), bad_child]
        }
        .check()
        .is_err());
        // Well-nested child.
        let good_child = SpanRecord {
            name: "c",
            parent: Some(0),
            start_ns: 10,
            dur_ns: 50,
            shard: Some(3),
        };
        let tree = SpanTree {
            spans: vec![root, good_child],
        };
        tree.check().unwrap();
        let rendered = tree.render();
        assert!(rendered.contains("r 100ns"));
        assert!(rendered.contains("  c 50ns [shard 3]"));
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(873), "873ns");
        assert_eq!(format_ns(14_200), "14.2us");
        assert_eq!(format_ns(3_400_000), "3.4ms");
        assert_eq!(format_ns(1_200_000_000), "1.20s");
    }
}
