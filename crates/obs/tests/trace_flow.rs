//! End-to-end flow through the tracing layer: a traced root backdated
//! to an admission instant, an annotated queue-wait interval, sharded
//! scatter legs whose inner spans inherit the leg's shard, and the
//! finished tree landing in the flight recorder. Lives in its own
//! binary because it owns the process-global sampling/threshold knobs.

use hft_obs::{
    annotate, clear_traces, find_trace, set_slow_threshold_ns, set_trace_sample_every, span,
    span_sharded, trace_root, trace_snapshot, TraceContext,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the tests: both touch the process-global flight recorder
/// and `clear_traces` must not race a concurrent recording test.
static GLOBALS: Mutex<()> = Mutex::new(());

#[test]
fn traced_scatter_request_is_recorded_as_one_tree() {
    let _globals = GLOBALS.lock().expect("globals");
    set_trace_sample_every(1);
    set_slow_threshold_ns(u64::MAX);
    clear_traces();

    let admitted = Instant::now();
    std::thread::sleep(Duration::from_millis(2)); // simulated queue wait
    let ctx = TraceContext::mint();
    assert!(ctx.sampled, "stride 1 samples every mint");

    {
        let _root = trace_root("serve.request", "geographic", ctx, admitted);
        annotate("queue.wait", 0, admitted.elapsed().as_nanos() as u64);

        let _scatter = span("router.scatter");
        // Two scatter legs, in turn on this thread; the work inside a
        // leg opens its spans without a shard.
        for k in 0..2u32 {
            let _leg = span_sharded("shard.call", k);
            let _lead = span("singleflight.lead");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(_scatter);
        let _merge = span_sharded("router.merge", 0);
    }

    let rec = find_trace(ctx.trace_id).expect("trace recorded");
    assert_eq!(rec.label, "geographic");
    assert!(rec.sampled && !rec.slow);
    rec.tree.check().expect("scatter tree stays well-formed");
    assert!(
        rec.total_ns >= 2_000_000,
        "root clock backdated to admission: {}",
        rec.total_ns
    );

    let names: Vec<&str> = rec.tree.spans.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "serve.request",
            "queue.wait",
            "router.scatter",
            "shard.call",
            "singleflight.lead",
            "shard.call",
            "singleflight.lead",
            "router.merge"
        ]
    );
    let shards: Vec<Option<u32>> = rec.tree.spans.iter().map(|s| s.shard).collect();
    assert_eq!(shards[..3], [None, None, None], "no shard above the legs");
    assert_eq!(
        shards[3..7],
        [Some(0), Some(0), Some(1), Some(1)],
        "legs keep their shard tags, and their children inherit them"
    );
    assert_eq!(shards[7], Some(0), "span_sharded tags the merge");

    // queue.wait is inside the backdated root window and ~2ms long.
    let wait = &rec.tree.spans[1];
    assert!(
        wait.dur_ns >= 1_500_000,
        "queue wait measured: {}",
        wait.dur_ns
    );
    assert!(wait.start_ns + wait.dur_ns <= rec.total_ns);

    // Non-destructive snapshot surfaces the same record, slowest first.
    let snap = trace_snapshot(16);
    assert!(snap.iter().any(|r| r.trace_id == ctx.trace_id));
    assert!(find_trace(ctx.trace_id).is_some(), "snapshot did not drain");
}

#[test]
fn untraced_and_nested_paths_degrade_gracefully() {
    let _globals = GLOBALS.lock().expect("globals");
    set_trace_sample_every(1);
    set_slow_threshold_ns(u64::MAX);

    // An unsampled context records nothing.
    let quiet = TraceContext {
        trace_id: 42,
        sampled: false,
    };
    {
        let _root = trace_root("serve.request", "stats", quiet, Instant::now());
    }
    assert!(find_trace(42).is_none(), "unsampled, fast: not kept");

    // trace_root under an open tree degrades to a plain child span and
    // must not re-origin or re-label the outer trace.
    let outer = TraceContext::mint();
    let inner = TraceContext::mint();
    {
        let _root = trace_root("serve.request", "outer", outer, Instant::now());
        let _nested = trace_root("serve.request", "inner", inner, Instant::now());
    }
    let rec = find_trace(outer.trace_id).expect("outer trace kept");
    assert_eq!(rec.label, "outer");
    assert_eq!(rec.tree.spans.len(), 2);
    assert_eq!(rec.tree.spans[1].parent, Some(0));
    assert!(find_trace(inner.trace_id).is_none());

    // annotate with nothing open is a no-op: nothing leaks into the
    // next tree.
    annotate("orphan", 0, 1);
    let next = TraceContext::mint();
    {
        let _root = trace_root("serve.request", "next", next, Instant::now());
    }
    let rec = find_trace(next.trace_id).expect("next trace kept");
    assert_eq!(rec.tree.spans.len(), 1, "{:?}", rec.tree.spans);
}
