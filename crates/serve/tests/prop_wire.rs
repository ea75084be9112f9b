//! Wire-codec properties: every request/response variant must survive a
//! canonical encode→decode round trip, and the framing layer must reject
//! malformed and oversized frames with structured errors, never panics.

mod codec_strategies;

use codec_strategies::{request, response};
use hft_serve::api::{Request, Response};
use hft_serve::wire::{self, FrameEvent, FrameReader};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_request_round_trips(req in request()) {
        let bytes = req.encode();
        let back = Request::decode(&bytes).expect("canonical encoding must decode");
        prop_assert_eq!(&back, &req);
        // Determinism: re-encoding the decoded value is byte-identical.
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn every_response_round_trips(resp in response()) {
        let bytes = resp.encode();
        let back = Response::decode(&bytes).expect("canonical encoding must decode");
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn mutated_request_bytes_never_panic(req in request(), pos in 0usize..10_000, byte in proptest::num::u8::ANY) {
        let mut bytes = req.encode();
        let at = pos % bytes.len();
        bytes[at] = byte;
        let _ = Request::decode(&bytes); // Ok or Err, never a panic
    }

    #[test]
    fn arbitrary_bytes_never_panic_decoders(bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..200)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }
}

// ---- Malformed-frame rejection (deterministic cases). ----

#[test]
fn malformed_frames_are_rejected_with_errors() {
    // Not UTF-8.
    let err = Request::decode(&[0xff, 0xfe, 0x00]).unwrap_err();
    assert!(err.contains("UTF-8"), "got {err:?}");
    // Not JSON.
    assert!(Request::decode(b"{\"type\": ").is_err());
    // Not an object.
    assert!(Request::decode(b"[1,2,3]").is_err());
    // Unknown type tag.
    let err = Request::decode(b"{\"type\":\"warp\"}").unwrap_err();
    assert!(err.contains("unknown request type"), "got {err:?}");
    let err = Response::decode(b"{\"type\":\"warp\"}").unwrap_err();
    assert!(err.contains("unknown response type"), "got {err:?}");
    // Missing required field.
    assert!(Request::decode(b"{\"type\":\"site_search\",\"service\":\"MG\"}").is_err());
    // Wrong field type.
    assert!(
        Request::decode(b"{\"type\":\"network\",\"licensee\":7,\"date\":\"2020-04-01\"}").is_err()
    );
    // Bad date.
    assert!(
        Request::decode(b"{\"type\":\"network\",\"licensee\":\"X\",\"date\":\"2020-13-01\"}")
            .is_err()
    );
    // A span index past u32::MAX is rejected, not truncated onto span 0
    // (the binary codec rejects the same value).
    let span = |parent: &str| {
        format!(
            "{{\"type\":\"traces\",\"traces\":[{{\"trace_id\":\"1\",\"label\":\"route\",\
             \"sampled\":true,\"slow\":false,\"total_ns\":9,\"spans\":[{{\"name\":\"serve.request\",\
             \"parent\":{parent},\"start_ns\":0,\"dur_ns\":9,\"shard\":null}}]}}]}}"
        )
    };
    assert!(Response::decode(span("4294967295").as_bytes()).is_ok());
    assert!(Response::decode(span("4294967296").as_bytes()).is_err());
}

#[test]
fn oversized_frames_are_rejected_before_allocation() {
    let cap = 64;
    let mut wire_bytes = Vec::new();
    wire::write_frame(&mut wire_bytes, &vec![b'x'; cap + 1]).unwrap();
    let mut cursor = std::io::Cursor::new(wire_bytes);
    let mut reader = FrameReader::new();
    assert_eq!(
        reader.read_from(&mut cursor, cap).unwrap(),
        FrameEvent::Oversized(cap as u32 + 1)
    );
    // A frame exactly at the cap is fine.
    let mut wire_bytes = Vec::new();
    wire::write_frame(&mut wire_bytes, &vec![b'x'; cap]).unwrap();
    let mut cursor = std::io::Cursor::new(wire_bytes);
    let mut reader = FrameReader::new();
    assert!(matches!(
        reader.read_from(&mut cursor, cap).unwrap(),
        FrameEvent::Frame(body) if body.len() == cap
    ));
}
