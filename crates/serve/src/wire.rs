//! The length-prefixed wire framing: a 4-byte big-endian length
//! followed by that many bytes of UTF-8 JSON.
//!
//! Frames above a configurable cap are rejected *before* allocation —
//! the length is validated from the header — so a hostile or corrupted
//! peer cannot make the server balloon. Reading tolerates socket read
//! timeouts mid-frame by accumulating into a buffer ([`FrameReader`]),
//! which lets connection handlers poll a shutdown flag between reads
//! without ever tearing a partially received frame.

use std::io::{self, Read, Write};

/// Default maximum frame body size (1 MiB).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Write one frame: 4-byte big-endian length, then the body.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large for u32"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body)
}

/// One step of [`FrameReader::read_from`].
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly (at a frame boundary).
    Eof,
    /// The declared length exceeds the cap; the stream is unusable.
    Oversized(u32),
    /// A read timed out (socket read-timeout) with no complete frame
    /// buffered; the caller may poll shutdown flags and try again.
    Idle,
}

/// Incremental frame decoder over a byte stream.
///
/// Keeps partial data across calls, so socket read timeouts between (or
/// even inside) frames never lose bytes.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Append raw bytes (readiness-loop style: the caller owns the
    /// socket and hands bytes over as they arrive).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next buffered frame after [`FrameReader::feed`]; a
    /// declared body longer than `limit` bytes is reported oversized.
    ///
    /// Returns only [`FrameEvent::Frame`] or [`FrameEvent::Oversized`];
    /// stream conditions (EOF, idle) are the caller's to observe.
    pub fn next(&mut self, limit: usize) -> Option<FrameEvent> {
        self.pop(limit)
    }

    /// Try to pop one buffered frame without touching the stream.
    fn pop(&mut self, limit: usize) -> Option<FrameEvent> {
        if self.buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len as usize > limit {
            return Some(FrameEvent::Oversized(len));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return None;
        }
        let body = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        Some(FrameEvent::Frame(body))
    }

    /// Read until one frame is complete, EOF, oversize, or a timeout.
    ///
    /// `WouldBlock`/`TimedOut`/`Interrupted` IO errors surface as
    /// [`FrameEvent::Idle`]; other IO errors propagate. EOF in the
    /// middle of a frame is reported as an [`io::ErrorKind::UnexpectedEof`]
    /// error, EOF at a boundary as [`FrameEvent::Eof`].
    pub fn read_from(&mut self, r: &mut impl Read, limit: usize) -> io::Result<FrameEvent> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(event) = self.pop(limit) {
                return Ok(event);
            }
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(FrameEvent::Eof)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(FrameEvent::Idle);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Blocking convenience for clients: read exactly one frame, treating
/// timeouts as fatal.
pub fn read_frame(r: &mut impl Read, limit: usize) -> io::Result<Option<Vec<u8>>> {
    let mut reader = FrameReader::new();
    match reader.read_from(r, limit)? {
        FrameEvent::Frame(body) => Ok(Some(body)),
        FrameEvent::Eof => Ok(None),
        FrameEvent::Oversized(len) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("oversized frame: {len} bytes"),
        )),
        FrameEvent::Idle => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "timed out waiting for a frame",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"world!").unwrap();
        let mut cursor = io::Cursor::new(wire);
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.read_from(&mut cursor, 1024).unwrap(),
            FrameEvent::Frame(b"hello".to_vec())
        );
        assert_eq!(
            reader.read_from(&mut cursor, 1024).unwrap(),
            FrameEvent::Frame(b"".to_vec())
        );
        assert_eq!(
            reader.read_from(&mut cursor, 1024).unwrap(),
            FrameEvent::Frame(b"world!".to_vec())
        );
        assert_eq!(
            reader.read_from(&mut cursor, 1024).unwrap(),
            FrameEvent::Eof
        );
    }

    #[test]
    fn oversized_frame_rejected_from_header_alone() {
        // Header declares 100 MiB; only the 4 header bytes exist.
        let wire = (100u32 << 20).to_be_bytes().to_vec();
        let mut cursor = io::Cursor::new(wire);
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.read_from(&mut cursor, DEFAULT_MAX_FRAME).unwrap(),
            FrameEvent::Oversized(100 << 20)
        );
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"truncated").unwrap();
        wire.truncate(7);
        let mut cursor = io::Cursor::new(wire);
        let mut reader = FrameReader::new();
        let err = reader.read_from(&mut cursor, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn dribbled_bytes_reassemble() {
        // Feed the frame one byte at a time through a reader that
        // returns WouldBlock between bytes — the FrameReader must
        // accumulate across Idle events without losing data.
        struct Dribble {
            data: Vec<u8>,
            pos: usize,
            parity: bool,
        }
        impl Read for Dribble {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.parity = !self.parity;
                if self.parity {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
                }
                if self.pos >= self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slow and steady").unwrap();
        let mut dribble = Dribble {
            data: wire,
            pos: 0,
            parity: false,
        };
        let mut reader = FrameReader::new();
        let mut idles = 0;
        loop {
            match reader.read_from(&mut dribble, 1024).unwrap() {
                FrameEvent::Frame(body) => {
                    assert_eq!(body, b"slow and steady");
                    break;
                }
                FrameEvent::Idle => idles += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(idles > 0, "the dribbling reader must have idled");
    }

    #[test]
    fn read_frame_convenience() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"one").unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), Some(b"one".to_vec()));
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), None);
    }
}
