//! Slow-query capture on the evented I/O plane: a request served
//! through the readiness loop's admission queue must land in the global
//! slow-query log when it exceeds the threshold, with the worker's
//! `serve.request` root and the backdated `queue.wait` annotation.
//!
//! Lives in its own test binary: it flips the process-global slow
//! threshold and drains the global slow log.

use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hft_serve::api::{Request, Response};
use hft_serve::{Client, Proto, ServeConfig, Server, Service};
use std::sync::OnceLock;

fn eco() -> &'static GeneratedEcosystem {
    static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
    ECO.get_or_init(|| generate(&chicago_nj(), 2020))
}

#[test]
fn evented_plane_files_slow_queries() {
    // Every queued request is "slow" under a zero threshold; head
    // sampling stays at its default stride so the capture below is
    // attributable to tail capture alone.
    hft_obs::set_slow_threshold_ns(0);
    let _ = hft_obs::take_slow_queries();

    let eco = eco();
    let service = Service::new(&eco.db);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        ..ServeConfig::default()
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
        // Stats bypasses the queue on the evented loop and so must NOT
        // open a worker root or add a slow-log entry of its own.
        match client.call(&Request::Stats).expect("stats answer") {
            Response::Stats { .. } => {}
            other => panic!("unexpected stats answer: {other:?}"),
        }
        client.call(&Request::Shutdown).expect("shutdown");
        handle.join().expect("server thread").expect("clean exit");
    });

    let slow = hft_obs::take_slow_queries();
    assert!(
        !slow.is_empty(),
        "zero threshold must capture the queued request"
    );
    let roots: Vec<&str> = slow.iter().map(|t| t.root().name).collect();
    assert!(
        roots.iter().all(|&n| n == "serve.request"),
        "every evented-plane capture roots at the worker span; got {roots:?}"
    );
    let queued = slow
        .iter()
        .find(|t| t.spans.iter().any(|s| s.name == "queue.wait"))
        .expect("a capture with the backdated queue.wait annotation");
    queued.check().expect("well-formed tree");
    assert_eq!(
        slow.len(),
        1,
        "exactly the one queued request is captured (Stats bypasses the queue): {roots:?}"
    );
}
