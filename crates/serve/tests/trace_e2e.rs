//! End-to-end distributed tracing over a sharded fleet: a scatter
//! request served by an evented 4-shard router must leave a retrievable
//! flight-recorder trace whose waterfall attributes wall time across
//! queue wait, per-shard service legs (run in turn under one root) and
//! the merge — and the trace must be fetchable both as "slowest set"
//! and by exact id over the binary wire.
//!
//! Lives in its own test binary: it flips the process-global trace
//! sampling stride and slow threshold.

use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hft_ingest::ShardedStore;
use hft_serve::api::{Request, Response};
use hft_serve::{Client, Proto, ServeConfig, Server, ShardRouter};
use hft_uls::shard::ShardStrategy;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

fn eco() -> &'static GeneratedEcosystem {
    static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
    ECO.get_or_init(|| generate(&chicago_nj(), 2020))
}

#[test]
fn scatter_request_yields_cross_shard_waterfall() {
    // Trace every request and mark everything slow so the one scatter
    // request below is captured by both head sampling and tail capture.
    hft_obs::set_trace_sample_every(1);
    hft_obs::set_slow_threshold_ns(0);
    hft_obs::clear_traces();

    let eco = eco();
    let store = ShardedStore::seeded(
        &Arc::new(eco.db.clone()),
        4,
        ShardStrategy::LicenseeHash,
        None,
    );
    let router = ShardRouter::over(&store);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run_with(&router));
        let mut client = Client::connect_with(&addr, Proto::Binary).expect("connect");

        // Geographic search has no licensee to route by — it scatters
        // to all four shards.
        let scatter = Request::Geographic {
            lat_deg: 41.7625,
            lon_deg: -88.1712,
            radius_km: 25.0,
        };
        match client.call(&scatter).expect("scatter answer") {
            Response::Licenses { .. } => {}
            other => panic!("unexpected scatter answer: {other:?}"),
        }

        let Response::Traces { traces } = client
            .call(&Request::Traces {
                limit: 8,
                trace_id: None,
            })
            .expect("traces answer")
        else {
            panic!("expected Response::Traces");
        };
        let trace = traces
            .iter()
            .find(|t| t.label == "geographic")
            .unwrap_or_else(|| {
                let labels: Vec<&str> = traces.iter().map(|t| t.label.as_str()).collect();
                panic!("no geographic trace captured; labels: {labels:?}")
            });
        assert!(trace.sampled, "stride-1 head sampling must mark it");
        assert!(trace.slow, "zero threshold must mark it slow");
        assert_ne!(trace.trace_id, 0, "minted trace id");

        // Waterfall shape: the worker's root, the backdated queue-wait
        // annotation, the scatter/merge structure, and per-shard legs
        // from at least two distinct shards.
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(trace.spans[0].name, "serve.request");
        assert!(trace.spans[0].parent.is_none(), "span 0 is the root");
        for want in ["queue.wait", "router.scatter", "router.merge"] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        let shards: BTreeSet<u32> = trace
            .spans
            .iter()
            .filter(|s| s.name == "shard.call")
            .filter_map(|s| s.shard)
            .collect();
        assert!(
            shards.len() >= 2,
            "cross-shard waterfall: want legs from >=2 shards, got {shards:?} in {names:?}"
        );

        // Wall-time attribution: every span (queue wait, shard legs,
        // merge) sits inside the root's window on the same clock.
        let total = trace.total_ns;
        assert_eq!(trace.spans[0].dur_ns, total);
        for s in &trace.spans {
            assert!(
                s.start_ns + s.dur_ns <= total,
                "span {} [{} +{}] escapes the root window of {total}ns",
                s.name,
                s.start_ns,
                s.dur_ns
            );
        }

        // Fetch-by-id returns exactly that trace.
        let Response::Traces { traces: by_id } = client
            .call(&Request::Traces {
                limit: 8,
                trace_id: Some(trace.trace_id),
            })
            .expect("trace by id")
        else {
            panic!("expected Response::Traces");
        };
        assert_eq!(by_id.len(), 1, "exact-id fetch returns one record");
        assert_eq!(by_id[0], *trace);

        // An unknown id degrades to an empty set, not an error.
        let Response::Traces { traces: none } = client
            .call(&Request::Traces {
                limit: 8,
                trace_id: Some(0xdead_beef),
            })
            .expect("unknown id answer")
        else {
            panic!("expected Response::Traces");
        };
        assert!(none.is_empty(), "unknown id yields no traces");

        match client.call(&Request::Shutdown).expect("shutdown answer") {
            Response::ShuttingDown => {}
            other => panic!("unexpected shutdown answer: {other:?}"),
        }
        handle.join().expect("server thread").expect("clean exit");
    });
}
