//! The compact binary wire codec and the protocol-negotiation hello
//! frames.
//!
//! Framing is unchanged (4-byte big-endian length prefix, see
//! [`crate::wire`]); this module defines an alternative *body* encoding
//! next to the deterministic JSON one:
//!
//! ```text
//! [0xB7] [kind] [payload…]
//!   kind 0x00  hello      (client → server: version, requested proto)
//!   kind 0x01  hello-ack  (server → client: version, granted proto)
//!   kind 0x02  request    (tag byte, then the variant's fields)
//!   kind 0x03  response   (tag byte, then the variant's fields)
//! ```
//!
//! The magic byte `0xB7` is a UTF-8 continuation byte, so no binary
//! body can ever be confused with a JSON one (JSON bodies start with
//! `{`) and vice versa. Each variant's tag and field order come from the
//! one table in [`crate::api`], which also drives the JSON codec; this
//! module owns the frame header, the hello frames and the bounds-checked
//! reader. Field primitives:
//!
//! * unsigned integers — LEB128 varints (≤ 10 bytes, exact over `u64`,
//!   unlike the JSON codec's 2⁵³ double limit),
//! * `f64` — 8 bytes, little-endian IEEE-754 bits,
//! * strings — varint byte length + UTF-8 bytes,
//! * `Option<T>` — presence byte `0`/`1` then `T`,
//! * dates — varint year, month byte, day byte (validated on decode),
//! * vectors — varint element count + elements,
//! * trace ids — 16 little-endian bytes.
//!
//! Decoding is total: every length is bounds-checked against the bytes
//! actually present before any allocation, recursion (the `metrics`
//! registry value) is depth-capped, and every failure is a structured
//! [`DecodeError`] — truncated, bit-flipped or hostile frames can never
//! panic the decoder. Values that the JSON codec canonicalizes (e.g.
//! non-finite latencies encode as `null` and decode as `+∞`/`None`) are
//! normalized identically here, by the same per-type code, so
//! `decode(encode(x))` equals the JSON round trip of `x` on every
//! variant — the fixed point the byte-level verification harness relies
//! on.

use crate::api::{Request, Response};

/// First byte of every binary-protocol frame body.
pub const MAGIC: u8 = 0xB7;
/// Binary-protocol version carried in hello frames.
pub const VERSION: u8 = 1;

/// Frame kinds (second byte of a binary body).
const KIND_HELLO: u8 = 0x00;
const KIND_HELLO_ACK: u8 = 0x01;
const KIND_REQUEST: u8 = 0x02;
const KIND_RESPONSE: u8 = 0x03;

/// The per-connection wire encoding, as negotiated by the hello frame.
/// Connections start in [`Proto::Json`]; a hello frame switches them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// Deterministic JSON bodies (the debuggable default).
    #[default]
    Json,
    /// Compact binary bodies (this module's encoding).
    Binary,
}

impl Proto {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Proto> {
        match s {
            "json" => Some(Proto::Json),
            "bin" | "binary" => Some(Proto::Binary),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Proto::Json => "json",
            Proto::Binary => "bin",
        }
    }

    fn code(&self) -> u8 {
        match self {
            Proto::Json => 0,
            Proto::Binary => 1,
        }
    }

    fn from_code(code: u8) -> Option<Proto> {
        match code {
            0 => Some(Proto::Json),
            1 => Some(Proto::Binary),
            _ => None,
        }
    }
}

/// Why a binary frame failed to decode. Every variant is a protocol
/// error the server answers with a structured `Error` response — never
/// a panic, never a misparse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame ended before the declared structure did.
    Truncated,
    /// Bytes remained after the structure was fully decoded.
    Trailing(usize),
    /// The first byte was not [`MAGIC`].
    BadMagic(u8),
    /// The kind byte did not name the expected frame kind.
    BadKind(u8),
    /// An unknown variant tag for the given frame kind.
    BadTag(&'static str, u8),
    /// A varint ran past 10 bytes or overflowed `u64`.
    BadVarint,
    /// A declared length exceeds the bytes present in the frame.
    BadLength(u64),
    /// String bytes were not valid UTF-8.
    BadUtf8,
    /// A date's year/month/day did not form a real calendar date.
    BadDate,
    /// An option's presence byte was neither 0 nor 1.
    BadPresence(u8),
    /// A JSON-value payload nested deeper than the decoder allows.
    TooDeep,
    /// A hello frame named an unknown protocol code.
    BadProto(u8),
    /// A hello frame named an unsupported protocol version.
    BadVersion(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "binary frame truncated"),
            DecodeError::Trailing(n) => write!(f, "binary frame has {n} trailing bytes"),
            DecodeError::BadMagic(b) => write!(f, "bad binary magic byte {b:#04x}"),
            DecodeError::BadKind(b) => write!(f, "bad binary frame kind {b:#04x}"),
            DecodeError::BadTag(kind, t) => write!(f, "unknown binary {kind} tag {t:#04x}"),
            DecodeError::BadVarint => write!(f, "malformed varint"),
            DecodeError::BadLength(n) => write!(f, "declared length {n} exceeds frame"),
            DecodeError::BadUtf8 => write!(f, "binary string is not UTF-8"),
            DecodeError::BadDate => write!(f, "binary date is not a real date"),
            DecodeError::BadPresence(b) => write!(f, "bad option presence byte {b:#04x}"),
            DecodeError::TooDeep => write!(f, "binary JSON value nested too deep"),
            DecodeError::BadProto(b) => write!(f, "unknown protocol code {b:#04x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Whether a frame body is binary-protocol (vs JSON).
pub fn is_binary(body: &[u8]) -> bool {
    body.first() == Some(&MAGIC)
}

/// The client hello frame requesting `proto`.
pub fn hello(proto: Proto) -> Vec<u8> {
    vec![MAGIC, KIND_HELLO, VERSION, proto.code()]
}

/// The server's hello acknowledgement granting `proto`.
pub fn hello_ack(proto: Proto) -> Vec<u8> {
    vec![MAGIC, KIND_HELLO_ACK, VERSION, proto.code()]
}

/// Classify a frame body as a hello (`Some`) or not (`None`); a `Some`
/// carries the requested protocol or the structured reason the hello is
/// unusable.
pub fn parse_hello(body: &[u8]) -> Option<Result<Proto, DecodeError>> {
    if body.len() < 2 || body[0] != MAGIC || body[1] != KIND_HELLO {
        return None;
    }
    Some(decode_hello_payload(body))
}

/// Decode a hello-ack frame body.
pub fn parse_hello_ack(body: &[u8]) -> Result<Proto, DecodeError> {
    if body.first() != Some(&MAGIC) {
        return Err(DecodeError::BadMagic(body.first().copied().unwrap_or(0)));
    }
    if body.get(1) != Some(&KIND_HELLO_ACK) {
        return Err(DecodeError::BadKind(body.get(1).copied().unwrap_or(0)));
    }
    decode_hello_payload(body)
}

fn decode_hello_payload(body: &[u8]) -> Result<Proto, DecodeError> {
    let version = *body.get(2).ok_or(DecodeError::Truncated)?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let code = *body.get(3).ok_or(DecodeError::Truncated)?;
    if body.len() > 4 {
        return Err(DecodeError::Trailing(body.len() - 4));
    }
    Proto::from_code(code).ok_or(DecodeError::BadProto(code))
}

/// A bounds-checked cursor over one frame body: every read checks the
/// bytes actually present, so no input can make the decoder panic.
pub(crate) struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Cur<'a> {
        Cur { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = (byte & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return Err(DecodeError::BadVarint);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::BadVarint)
    }

    /// A varint that must also fit the bytes still present — used for
    /// every length so hostile frames cannot force large allocations.
    pub(crate) fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(DecodeError::BadLength(n));
        }
        Ok(n as usize)
    }

    /// Check the frame header, decode the body with `body`, and reject
    /// trailing bytes.
    fn frame<T>(
        bytes: &'a [u8],
        kind: u8,
        body: fn(&mut Cur<'a>) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let mut cur = Cur::new(bytes);
        let magic = cur.u8()?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        let k = cur.u8()?;
        if k != kind {
            return Err(DecodeError::BadKind(k));
        }
        let value = body(&mut cur)?;
        match cur.remaining() {
            0 => Ok(value),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

/// Append `req`'s binary body to `buf` (which is not cleared — pooled
/// buffers arrive already reset).
pub fn encode_request_into(req: &Request, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&[MAGIC, KIND_REQUEST]);
    req.put_body(buf);
}

/// Encode one request as a fresh binary body.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_request_into(req, &mut buf);
    buf
}

/// Decode a binary request body.
pub fn decode_request(body: &[u8]) -> Result<Request, DecodeError> {
    Cur::frame(body, KIND_REQUEST, Request::get_body)
}

/// Append `resp`'s binary body to `buf` (not cleared — pooled buffers
/// arrive already reset).
pub fn encode_response_into(resp: &Response, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&[MAGIC, KIND_RESPONSE]);
    resp.put_body(buf);
}

/// Encode one response as a fresh binary body.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    encode_response_into(resp, &mut buf);
    buf
}

/// Decode a binary response body.
pub fn decode_response(body: &[u8]) -> Result<Response, DecodeError> {
    Cur::frame(body, KIND_RESPONSE, Response::get_body)
}

// ---- Proto-dispatching conveniences. ----

/// Encode a request under `proto`.
pub fn request_bytes(proto: Proto, req: &Request) -> Vec<u8> {
    match proto {
        Proto::Json => req.encode(),
        Proto::Binary => encode_request(req),
    }
}

/// Append a response body under `proto` to `buf`.
pub fn response_bytes_into(proto: Proto, resp: &Response, buf: &mut Vec<u8>) {
    match proto {
        Proto::Json => buf.extend_from_slice(resp.encode().as_slice()),
        Proto::Binary => encode_response_into(resp, buf),
    }
}

/// Decode a request body by sniffing the magic byte: binary frames can
/// never start like JSON and vice versa, so the server accepts either
/// encoding on any connection (responses still follow the *negotiated*
/// protocol).
pub fn sniff_request(body: &[u8]) -> Result<Request, String> {
    if is_binary(body) {
        decode_request(body).map_err(|e| e.to_string())
    } else {
        Request::decode(body)
    }
}

/// Decode a response body under `proto`.
pub fn response_from(proto: Proto, body: &[u8]) -> Result<Response, String> {
    match proto {
        Proto::Json => Response::decode(body),
        Proto::Binary => decode_response(body).map_err(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_frames_round_trip_and_classify() {
        for proto in [Proto::Json, Proto::Binary] {
            let h = hello(proto);
            assert!(is_binary(&h));
            assert_eq!(parse_hello(&h), Some(Ok(proto)));
            let ack = hello_ack(proto);
            assert_eq!(parse_hello_ack(&ack), Ok(proto));
            // An ack is not a hello and a hello is not an ack.
            assert_eq!(parse_hello(&ack), None);
            assert!(parse_hello_ack(&h).is_err());
        }
        // Requests and JSON are not hellos.
        assert_eq!(parse_hello(&encode_request(&Request::Stats)), None);
        assert_eq!(parse_hello(b"{\"type\":\"stats\"}"), None);
        // Version and proto validation.
        assert_eq!(
            parse_hello(&[MAGIC, KIND_HELLO, 9, 0]),
            Some(Err(DecodeError::BadVersion(9)))
        );
        assert_eq!(
            parse_hello(&[MAGIC, KIND_HELLO, VERSION, 7]),
            Some(Err(DecodeError::BadProto(7)))
        );
        assert_eq!(
            parse_hello(&[MAGIC, KIND_HELLO]),
            Some(Err(DecodeError::Truncated))
        );
    }

    #[test]
    fn hostile_lengths_never_allocate() {
        // Declares a 2^41-byte string in a 16-byte frame.
        let mut frame = vec![MAGIC, KIND_REQUEST, 0x02]; // site_search
        frame.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x40]);
        frame.extend_from_slice(b"xxxxxxx");
        match decode_request(&frame).unwrap_err() {
            DecodeError::BadLength(n) => assert_eq!(n, 1 << 41),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deep_json_nesting_is_rejected() {
        let mut frame = vec![MAGIC, KIND_RESPONSE, 0x08]; // metrics
        for _ in 0..200 {
            frame.push(5); // array…
            frame.push(1); // …of one element
        }
        frame.push(0); // null at the bottom
        assert_eq!(decode_response(&frame).unwrap_err(), DecodeError::TooDeep);
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 11 continuation bytes.
        let mut frame = vec![MAGIC, KIND_RESPONSE, 0x01, 1]; // licenses
        frame.extend_from_slice(&[0xff; 10]);
        frame.push(0x7f);
        assert!(matches!(
            decode_response(&frame).unwrap_err(),
            DecodeError::BadVarint | DecodeError::BadLength(_)
        ));
    }

    #[test]
    fn proto_names_round_trip() {
        for proto in [Proto::Json, Proto::Binary] {
            assert_eq!(Proto::parse(proto.name()), Some(proto));
        }
        assert_eq!(Proto::parse("binary"), Some(Proto::Binary));
        assert_eq!(Proto::parse("msgpack"), None);
    }
}
