//! Span-tree integration tests: the flight recorder keeps an unsampled
//! request only when it is slow, as one well-formed tree with no
//! orphaned or negative-duration spans; a span opened while no tree is
//! open records nothing; and the kill switch stops recording.
//!
//! Runs as its own test binary because it owns the process-global
//! tracing knobs (slow threshold, head-sampling stride, kill switch)
//! and the process-wide flight recorder.

use hft_obs::{
    clear_traces, find_trace, set_enabled, set_slow_threshold_ns, set_trace_sample_every, span,
    span_sharded, trace_root, trace_snapshot, TraceContext,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the tests: both flip the process-global knobs and read
/// the process-wide recorder and `obs.slow_queries`.
static GLOBALS: Mutex<()> = Mutex::new(());

/// A fresh context that head sampling did not pick.
fn unsampled() -> TraceContext {
    TraceContext {
        sampled: false,
        ..TraceContext::mint()
    }
}

/// The canonical request shape:
/// `serve.request > singleflight.wait, session.networks > route.apa`.
fn run_request(ctx: TraceContext, slow: bool) {
    let _root = trace_root("serve.request", "test", ctx, Instant::now());
    {
        let _wait = span("singleflight.wait");
        if slow {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    {
        let _net = span("session.networks");
        let _apa = span("route.apa");
        if slow {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn names(ctx: TraceContext) -> Vec<&'static str> {
    let rec = find_trace(ctx.trace_id).expect("trace kept");
    rec.tree.spans.iter().map(|s| s.name).collect()
}

#[test]
fn slow_request_yields_one_well_formed_tree() {
    let _globals = GLOBALS.lock().expect("globals");
    set_trace_sample_every(0);
    clear_traces();

    // Fast unsampled requests below the threshold are not kept.
    set_slow_threshold_ns(u64::MAX);
    for _ in 0..10 {
        run_request(unsampled(), false);
    }
    assert!(
        trace_snapshot(usize::MAX).is_empty(),
        "fast unsampled requests are not kept"
    );

    // One forced slow request -> exactly one recorder entry.
    set_slow_threshold_ns(1_000_000); // 1 ms, far below the forced 10 ms
    let ctx = unsampled();
    run_request(ctx, true);
    set_slow_threshold_ns(u64::MAX);
    let kept = trace_snapshot(usize::MAX);
    assert_eq!(kept.len(), 1, "exactly one recorder entry");
    let rec = &kept[0];
    assert_eq!(rec.trace_id, ctx.trace_id);
    assert!(rec.slow && !rec.sampled, "kept by tail capture alone");
    assert_eq!(find_trace(ctx.trace_id).as_ref(), Some(rec));

    // Well-formed: single root, parents precede children, children
    // nest inside their parent's window (durations are u64, so a
    // negative duration cannot even be represented; `check` verifies
    // the windows are consistent).
    let tree = &rec.tree;
    tree.check().expect("tree must be well-formed");
    assert_eq!(
        names(ctx),
        [
            "serve.request",
            "singleflight.wait",
            "session.networks",
            "route.apa"
        ]
    );
    assert_eq!(tree.spans[0].parent, None);
    assert_eq!(tree.spans[1].parent, Some(0));
    assert_eq!(tree.spans[2].parent, Some(0));
    assert_eq!(tree.spans[3].parent, Some(2), "route.apa nests in networks");
    assert!(rec.total_ns >= 10_000_000, "two 5 ms sleeps inside");
    assert_eq!(rec.total_ns, tree.total_ns());
    assert!(tree.spans[1].dur_ns <= tree.total_ns());

    // --- The kill switch ---
    set_trace_sample_every(1);
    let ctx = TraceContext::mint();
    assert!(ctx.sampled, "stride 1 samples every mint");
    set_enabled(false);
    run_request(ctx, false);
    set_enabled(true);
    assert!(
        find_trace(ctx.trace_id).is_none(),
        "disabled spans record nothing"
    );

    // Re-enabled, capture resumes.
    let ctx = TraceContext::mint();
    run_request(ctx, false);
    assert_eq!(names(ctx).len(), 4);
    set_trace_sample_every(0);
    clear_traces();
}

#[test]
fn a_span_outside_a_tree_records_nothing() {
    let _globals = GLOBALS.lock().expect("globals");
    set_trace_sample_every(0);
    clear_traces();
    // Every closing root is slow under a zero threshold.
    set_slow_threshold_ns(0);
    let slow_queries = hft_obs::global().counter("obs.slow_queries");
    let before = slow_queries.value();

    {
        let _lone = span("ingest.apply");
        let _leg = span_sharded("shard.call", 3);
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        trace_snapshot(usize::MAX).is_empty(),
        "a lone span files no recorder entry"
    );
    assert_eq!(
        slow_queries.value(),
        before,
        "a lone span is not a request and opens no root"
    );

    // Nothing leaks into the next tree, and that request counts.
    let ctx = unsampled();
    {
        let _root = trace_root("serve.request", "next", ctx, Instant::now());
    }
    set_slow_threshold_ns(u64::MAX);
    let rec = find_trace(ctx.trace_id).expect("the slow request is kept");
    assert!(rec.slow && !rec.sampled);
    assert_eq!(names(ctx), ["serve.request"]);
    assert_eq!(slow_queries.value(), before + 1);
    clear_traces();
}
