//! Lightweight span tracing: scoped guards capture a request's nested
//! timing tree on the thread that answers it, and the finished tree is
//! filed into the flight recorder when it was head-sampled or slow.
//!
//! # Model
//!
//! [`trace_root`] is the only way a tree starts: it opens the root span
//! under a [`crate::trace::TraceContext`] and sets the tree's time
//! origin. [`span`] and [`span_sharded`] open a span under the
//! innermost open one and return a guard; dropping the guard closes it.
//! With no tree open on the thread they record nothing, so a memo fill
//! or an ingest fold that runs outside a request costs one thread-local
//! check. Guards nest lexically (they are `!Send` scope guards), so the
//! per-thread open stack always closes in LIFO order and a finished
//! tree can never contain an orphaned span. When the root guard drops,
//! the whole tree is finalized at once: a root that lasted at least
//! [`slow_threshold_ns`] bumps `obs.slow_queries`, and a tree that was
//! head-sampled or slow is filed into the flight recorder
//! ([`crate::trace`]) keyed by trace id. Anything else is dropped.
//!
//! Trees are per thread by construction. A fan-out request runs its
//! shard legs in turn on the answering thread, so it finalizes as one
//! tree: each leg is an ordinary [`span_sharded`] span, and a span
//! opened without a shard takes its parent's, so everything inside a
//! leg reads that leg's shard.
//!
//! All bookkeeping is thread-local; the only shared state touched on a
//! hot path is one relaxed load of the kill switch, and the recorder's
//! per-thread ring is locked only when a kept tree is filed.

use crate::trace::{TraceContext, TraceRecord};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default slow threshold: 50 ms.
const DEFAULT_SLOW_NS: u64 = 50_000_000;

static SLOW_NS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_NS);

/// Set the root-duration threshold (ns) at or above which a closing
/// trace root is tail-captured into the flight recorder and counted in
/// `obs.slow_queries`.
pub fn set_slow_threshold_ns(ns: u64) {
    SLOW_NS.store(ns, Ordering::SeqCst);
}

/// The current slow threshold in nanoseconds.
pub fn slow_threshold_ns() -> u64 {
    SLOW_NS.load(Ordering::Relaxed)
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

/// The open tree's time origin and the identity it was opened with.
struct OpenRoot {
    started: Instant,
    ctx: TraceContext,
    label: &'static str,
}

struct ThreadSpans {
    spans: Vec<SpanRecord>,
    open: Vec<u32>,
    /// Set by [`trace_root`] while its tree is open.
    root: Option<OpenRoot>,
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
            root: None,
        })
    };
}

fn open_span(name: &'static str, shard: Option<u32>) -> SpanGuard {
    let active = crate::enabled()
        && TLS.with(|t| {
            let mut t = t.borrow_mut();
            let Some(root) = &t.root else {
                return false;
            };
            let start_ns = root.started.elapsed().as_nanos() as u64;
            t.push_open(name, start_ns, shard);
            true
        });
    SpanGuard {
        active,
        _not_send: PhantomData,
    }
}

/// Open a span named `name` under the innermost open span of this
/// thread's tree; with no tree open it records nothing. Close it by
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
        if t.root.is_some() {
            return false;
        }
        t.root = Some(OpenRoot {
            started,
            ctx,
            label,
        });
        t.push_open(name, 0, None);
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
        let Some(root) = &t.root else {
            return;
        };
        let start_ns = started.saturating_duration_since(root.started).as_nanos() as u64;
        let end_ns = root.started.elapsed().as_nanos() as u64;
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
            let (Some(idx), Some(root)) = (t.open.pop(), &t.root) else {
                return None; // tree was torn down mid-flight; ignore
            };
            let end_ns = root.started.elapsed().as_nanos() as u64;
            let rec = &mut t.spans[idx as usize];
            rec.dur_ns = end_ns.saturating_sub(rec.start_ns);
            if !t.open.is_empty() {
                return None;
            }
            // Root closed: take the whole tree.
            let root = t.root.take()?;
            let tree = SpanTree {
                spans: std::mem::take(&mut t.spans),
            };
            Some((root, tree))
        });
        let Some((root, tree)) = finished else {
            return;
        };
        let slow = tree.total_ns() >= slow_threshold_ns();
        if slow {
            crate::global().counter("obs.slow_queries").incr();
        }
        if root.ctx.trace_id != 0 && (root.ctx.sampled || slow) {
            crate::trace::record(TraceRecord {
                trace_id: root.ctx.trace_id,
                label: root.label,
                sampled: root.ctx.sampled,
                slow,
                total_ns: tree.total_ns(),
                tree,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests touching the recorder and the process-global knobs live
    // in tests/span_tree.rs and tests/trace_flow.rs (their own
    // processes); here only pure helpers.

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
        SpanTree {
            spans: vec![root, good_child],
        }
        .check()
        .unwrap();
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(873), "873ns");
        assert_eq!(format_ns(14_200), "14.2us");
        assert_eq!(format_ns(3_400_000), "3.4ms");
        assert_eq!(format_ns(1_200_000_000), "1.20s");
    }
}
