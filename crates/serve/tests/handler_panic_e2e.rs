//! Fault injection: a handler that panics on one request kind must cost
//! neither a pool worker nor the connection it was answering. The
//! faulting request answers a structured error, and the next request on
//! the same connection still answers.

use hft_serve::api::{Request, Response};
use hft_serve::wire::{self, DEFAULT_MAX_FRAME};
use hft_serve::{Handler, ServeConfig, ServeStats, Server, Service};
use hft_time::Date;
use hft_uls::UlsDatabase;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A service that panics on every `network` request.
struct PanicsOnNetwork {
    service: Service<'static>,
}

impl Handler for PanicsOnNetwork {
    fn handle(&self, req: &Request) -> Response {
        if matches!(req, Request::Network { .. }) {
            panic!("injected handler fault");
        }
        self.service.handle(req)
    }

    fn serve_stats(&self) -> &ServeStats {
        self.service.stats()
    }
}

/// One serial round trip over a raw socket; a missing answer fails on
/// the socket's read timeout instead of hanging the test.
fn call(stream: &mut TcpStream, request: &Request) -> Response {
    wire::write_frame(stream, &request.encode()).expect("send");
    let body = wire::read_frame(stream, DEFAULT_MAX_FRAME)
        .expect("answer before the read timeout")
        .expect("connection open");
    Response::decode(&body).expect("decodable answer")
}

#[test]
fn panicking_handler_answers_error_and_connection_survives() {
    let handler = PanicsOnNetwork {
        service: Service::over_snapshot(
            Arc::new(UlsDatabase::new()),
            0,
            Arc::new(ServeStats::default()),
        ),
    };
    // One worker: had the panic killed it, nothing would answer the
    // follow-up request either.
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    // A detached thread, so a hung server cannot hang the test harness.
    let serving = std::thread::spawn(move || server.run_with(&handler));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");

    let faulting = Request::Network {
        licensee: "Alpha Networks".into(),
        date: Date::new(2020, 1, 1).unwrap(),
    };
    assert_eq!(
        call(&mut stream, &faulting),
        Response::Error {
            message: "internal error: handler panicked".into()
        }
    );
    let follow_up = Request::SiteSearch {
        service: "MG".into(),
        class: "FXO".into(),
    };
    assert_eq!(
        call(&mut stream, &follow_up),
        Response::Licenses { ids: vec![] }
    );
    assert_eq!(
        call(&mut stream, &Request::Shutdown),
        Response::ShuttingDown
    );

    let stats = serving
        .join()
        .expect("server thread")
        .expect("server ran cleanly");
    assert_eq!(stats.errors, 1, "the panic is counted as an error");
    assert_eq!(stats.completed, 3);
}
