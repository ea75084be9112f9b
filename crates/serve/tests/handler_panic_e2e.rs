//! Fault injection: a handler that panics on one request kind must cost
//! neither a pool worker, nor the event loop, nor the connection it was
//! answering. The faulting request answers a structured error, and the
//! next request on the same connection still answers.

use hft_serve::api::{Request, Response};
use hft_serve::wire::{self, DEFAULT_MAX_FRAME};
use hft_serve::{Handler, ServeConfig, ServeSnapshot, ServeStats, Server, Service};
use hft_time::Date;
use hft_uls::UlsDatabase;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A service that panics on every request `faults` picks.
struct Panicking {
    service: Service<'static>,
    faults: fn(&Request) -> bool,
}

impl Handler for Panicking {
    fn handle(&self, req: &Request) -> Response {
        if (self.faults)(req) {
            panic!("injected handler fault");
        }
        self.service.handle(req)
    }

    fn serve_stats(&self) -> &ServeStats {
        self.service.stats()
    }
}

/// Serve a [`Panicking`] handler on one pool worker (had a panic killed
/// it, nothing would answer a follow-up either), on a detached thread so
/// a hung server cannot hang the test harness.
fn serve(faults: fn(&Request) -> bool) -> (SocketAddr, JoinHandle<io::Result<ServeSnapshot>>) {
    let handler = Panicking {
        service: Service::over_snapshot(
            Arc::new(UlsDatabase::new()),
            0,
            Arc::new(ServeStats::default()),
        ),
        faults,
    };
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run_with(&handler)))
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
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

fn handler_panicked() -> Response {
    Response::Error {
        message: "internal error: handler panicked".into(),
    }
}

fn site_search() -> Request {
    Request::SiteSearch {
        service: "MG".into(),
        class: "FXO".into(),
    }
}

#[test]
fn panicking_handler_answers_error_and_connection_survives() {
    let (addr, serving) = serve(|req| matches!(req, Request::Network { .. }));
    let mut stream = connect(addr);

    let faulting = Request::Network {
        licensee: "Alpha Networks".into(),
        date: Date::new(2020, 1, 1).unwrap(),
    };
    assert_eq!(call(&mut stream, &faulting), handler_panicked());
    assert_eq!(
        call(&mut stream, &site_search()),
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

/// `Stats` is answered on the event loop, not on a pool worker, so the
/// loop must catch the panic itself: unwinding out of it would leave
/// the server deaf and its pool workers parked forever.
#[test]
fn panicking_telemetry_answers_error_and_loop_survives() {
    let (addr, serving) = serve(|req| matches!(req, Request::Stats));
    let mut stream = connect(addr);

    assert_eq!(call(&mut stream, &Request::Stats), handler_panicked());
    let mut other = connect(addr);
    assert_eq!(
        call(&mut other, &site_search()),
        Response::Licenses { ids: vec![] },
        "a new connection is still served"
    );
    assert_eq!(
        call(&mut stream, &site_search()),
        Response::Licenses { ids: vec![] },
        "the faulting connection is still served"
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
    assert_eq!(stats.completed, 4);
}
