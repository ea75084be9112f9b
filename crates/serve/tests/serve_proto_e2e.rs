//! End-to-end coverage of the binary wire protocol: a binary-negotiating
//! client must get byte-identical answers (post-decode) to a direct
//! in-process session, JSON and binary clients must coexist on one
//! server, and a connection that upgrades mid-stream must see its
//! pre-hello answers in JSON and post-hello answers in binary.

use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hft_serve::api::{Request, Response};
use hft_serve::binwire;
use hft_serve::wire::{self, FrameEvent, FrameReader, DEFAULT_MAX_FRAME};
use hft_serve::{Client, Proto, ServeConfig, Server, Service};
use hft_time::Date;
use std::net::TcpStream;
use std::sync::OnceLock;

fn eco() -> &'static GeneratedEcosystem {
    static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
    ECO.get_or_init(|| generate(&chicago_nj(), 2020))
}

fn mix() -> Vec<Request> {
    let eco = eco();
    let licensee = eco.connected_2020.first().unwrap().clone();
    let date = Date::new(2020, 4, 1).unwrap();
    vec![
        Request::Geographic {
            lat_deg: 41.7625,
            lon_deg: -88.1712,
            radius_km: 10.0,
        },
        Request::Shortlist {
            lat_deg: 41.7625,
            lon_deg: -88.1712,
            radius_km: 10.0,
            min_filings: 11,
        },
        Request::Network {
            licensee: licensee.clone(),
            date,
        },
        Request::Route {
            licensee: licensee.clone(),
            date,
            from: "CME".into(),
            to: "NY4".into(),
        },
        Request::Weather {
            licensee: licensee.clone(),
            date,
            from: "CME".into(),
            to: "NY4".into(),
            samples: 200,
            seed: 7,
        },
        // Error paths must be identical over the binary wire too.
        Request::Network {
            licensee: "No Such Networks LLC".into(),
            date,
        },
        // A race from a data center to itself has a zero geodesic, so
        // every stretch factor would be 0/0: a structured error on both
        // wires, never a NaN that only the binary decoder accepts.
        Request::Race {
            licensee: licensee.clone(),
            date,
            from: "CME".into(),
            to: "CME".into(),
            constellation: "starlink".into(),
            samples: 100,
            seed: 7,
        },
    ]
}

fn next_frame(reader: &mut FrameReader, stream: &mut TcpStream) -> Vec<u8> {
    loop {
        match reader.read_from(stream, DEFAULT_MAX_FRAME).unwrap() {
            FrameEvent::Frame(body) => return body,
            FrameEvent::Idle => continue,
            other => panic!("unexpected frame event: {other:?}"),
        }
    }
}

fn bind() -> Server {
    Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 3,
        queue_depth: 32,
    })
    .unwrap()
}

/// Binary client, serial and pipelined: the wire format cannot change
/// an answer.
#[test]
fn binary_round_trips() {
    let eco = eco();
    let mix = mix();
    let reference = Service::new(&eco.db);
    let expected: Vec<Vec<u8>> = mix.iter().map(|r| reference.handle(r).encode()).collect();
    // Every answer must decode from its own JSON, or a JSON client
    // could not read it back.
    for (request, want) in mix.iter().zip(&expected) {
        if let Err(e) = Response::decode(want) {
            panic!("answer to {request:?} does not decode: {e}");
        }
    }

    let server = bind();
    let addr = server.local_addr().unwrap();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run_with(&Service::new(&eco.db)).unwrap());

        let mut bin = Client::connect_with(&addr, Proto::Binary).unwrap();
        assert_eq!(bin.proto(), Proto::Binary);
        for (request, want) in mix.iter().zip(&expected) {
            let got = bin.call(request).unwrap();
            assert_eq!(&got.encode(), want, "binary serial answer for {request:?}");
        }

        // Pipelined binary alongside a plain JSON client on the same
        // server: both see the same bytes post-decode.
        let mut piped = Client::connect_with(&addr, Proto::Binary).unwrap();
        let mut json = Client::connect(&addr).unwrap();
        for request in &mix {
            piped.send(request).unwrap();
        }
        piped.flush().unwrap();
        for (request, want) in mix.iter().zip(&expected) {
            assert_eq!(&json.call(request).unwrap().encode(), want);
            let got = piped.recv().unwrap();
            assert_eq!(
                &got.encode(),
                want,
                "binary pipelined answer for {request:?}"
            );
        }

        let ack = bin.call(&Request::Shutdown).unwrap();
        assert_eq!(ack, Response::ShuttingDown);
        let stats = handle.join().unwrap();
        assert!(stats.received > 3 * mix.len() as u64);
        assert_eq!(stats.rejected_overloaded, 0);
    });
}

/// A raw socket that starts in JSON, upgrades mid-stream, and keeps
/// pipelining: answers to requests sent before the hello arrive as
/// JSON, the hello is acknowledged in order, and answers after it
/// arrive in binary — per-request protocol bookkeeping, not
/// per-connection guesswork.
#[test]
fn mid_stream_hello_switches_response_codec_in_order() {
    let eco = eco();
    let request = Request::SiteSearch {
        service: "MG".into(),
        class: "FXO".into(),
    };
    let want = Service::new(&eco.db).handle(&request).encode();

    let server = bind();
    let addr = server.local_addr().unwrap();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run_with(&Service::new(&eco.db)).unwrap());

        let mut stream = TcpStream::connect(addr).unwrap();
        // JSON request, hello, binary request — all flooded before
        // reading a single response.
        wire::write_frame(&mut stream, &request.encode()).unwrap();
        wire::write_frame(&mut stream, &binwire::hello(Proto::Binary)).unwrap();
        wire::write_frame(&mut stream, &binwire::encode_request(&request)).unwrap();

        let mut reader = FrameReader::new();

        let first = next_frame(&mut reader, &mut stream);
        assert!(!binwire::is_binary(&first), "pre-hello answer must be JSON");
        assert_eq!(first, want);

        let ack = next_frame(&mut reader, &mut stream);
        assert_eq!(binwire::parse_hello_ack(&ack).unwrap(), Proto::Binary);

        let second = next_frame(&mut reader, &mut stream);
        assert!(
            binwire::is_binary(&second),
            "post-hello answer must be binary"
        );
        let decoded = binwire::decode_response(&second).unwrap();
        assert_eq!(decoded.encode(), want);

        // Shut down over the upgraded connection.
        wire::write_frame(&mut stream, &binwire::encode_request(&Request::Shutdown)).unwrap();
        let ack = next_frame(&mut reader, &mut stream);
        assert_eq!(
            binwire::decode_response(&ack).unwrap(),
            Response::ShuttingDown
        );
        handle.join().unwrap();
    });
}

/// A malformed binary frame (bad variant tag) answers a structured
/// error in the connection's protocol and the connection survives for
/// the next well-formed request.
#[test]
fn malformed_binary_frame_answers_error_and_survives() {
    let eco = eco();
    let server = bind();
    let addr = server.local_addr().unwrap();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run_with(&Service::new(&eco.db)).unwrap());

        let mut stream = TcpStream::connect(addr).unwrap();
        wire::write_frame(&mut stream, &binwire::hello(Proto::Binary)).unwrap();
        wire::write_frame(&mut stream, &[binwire::MAGIC, 0x02, 0xee]).unwrap();
        wire::write_frame(
            &mut stream,
            &binwire::encode_request(&Request::SiteSearch {
                service: "MG".into(),
                class: "FXO".into(),
            }),
        )
        .unwrap();

        let mut reader = FrameReader::new();

        assert_eq!(
            binwire::parse_hello_ack(&next_frame(&mut reader, &mut stream)).unwrap(),
            Proto::Binary
        );
        match binwire::decode_response(&next_frame(&mut reader, &mut stream)).unwrap() {
            Response::Error { message } => {
                assert!(message.contains("request"), "got {message:?}")
            }
            other => panic!("expected error, got {other:?}"),
        }
        // The connection still answers the well-formed follow-up.
        match binwire::decode_response(&next_frame(&mut reader, &mut stream)).unwrap() {
            Response::Licenses { .. } => {}
            other => panic!("expected licenses, got {other:?}"),
        }

        wire::write_frame(&mut stream, &binwire::encode_request(&Request::Shutdown)).unwrap();
        assert_eq!(
            binwire::decode_response(&next_frame(&mut reader, &mut stream)).unwrap(),
            Response::ShuttingDown
        );
        handle.join().unwrap();
    });
}
