//! Tail capture end to end: with head sampling off, a request served
//! through the loop's admission queue must land in the flight recorder
//! exactly once when it exceeds the slow threshold, as the worker's
//! `serve.request` root holding the backdated `queue.wait` annotation.
//!
//! Lives in its own test binary: it flips the process-global slow
//! threshold and sampling stride and reads the process-wide recorder.

use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hft_serve::api::{Request, Response};
use hft_serve::{Client, Proto, ServeConfig, Server, Service};
use std::sync::OnceLock;

fn eco() -> &'static GeneratedEcosystem {
    static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
    ECO.get_or_init(|| generate(&chicago_nj(), 2020))
}

#[test]
fn slow_request_is_tail_captured_once() {
    // Every queued request is slow under a zero threshold, and head
    // sampling is off, so the capture below is tail capture alone.
    hft_obs::set_trace_sample_every(0);
    hft_obs::set_slow_threshold_ns(0);
    hft_obs::clear_traces();

    let eco = eco();
    let service = Service::new(&eco.db);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run_with(&service));
        let mut client = Client::connect_with(&addr, Proto::Json).expect("connect");
        let request = Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        };
        match client.call(&request).expect("answer") {
            Response::Licenses { .. } => {}
            other => panic!("unexpected answer: {other:?}"),
        }
        // Stats bypasses the queue, so it opens no worker root and
        // adds no record of its own.
        match client.call(&Request::Stats).expect("stats answer") {
            Response::Stats { .. } => {}
            other => panic!("unexpected stats answer: {other:?}"),
        }
        client.call(&Request::Shutdown).expect("shutdown");
        handle.join().expect("server thread").expect("clean exit");
    });

    let kept = hft_obs::trace_snapshot(usize::MAX);
    let labels: Vec<&str> = kept.iter().map(|r| r.label).collect();
    assert_eq!(
        kept.len(),
        1,
        "exactly the one queued request is kept (Stats bypasses the queue): {labels:?}"
    );
    let rec = &kept[0];
    assert!(rec.slow && !rec.sampled, "kept by tail capture alone");
    assert_eq!(rec.label, "site_search");
    rec.tree.check().expect("well-formed tree");
    assert_eq!(rec.tree.root().name, "serve.request");
    assert!(
        rec.tree.spans.iter().any(|s| s.name == "queue.wait"),
        "the backdated queue.wait annotation is inside the root"
    );
}
