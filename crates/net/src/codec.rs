//! The transport-agnostic frame codec: length-prefixed frames over any
//! `Read`/`Write` pair, with serde-encoded payloads.
//!
//! A frame is a 4-byte big-endian payload length followed by the payload
//! (UTF-8 JSON via the workspace serde shim). The codec knows nothing
//! about sockets — the blocking TCP server and client in this crate drive
//! it over `TcpStream` halves, and an async front-end could drive the
//! same functions over its own buffered streams.
//!
//! [`write_frame`] hands its writer the length and the payload in one
//! `write_all`, then flushes. Through the `BufWriter` the server and client
//! use, a frame of any size then reaches the socket in one write: a
//! separate 4-byte write would go out alone whenever the payload overflows
//! the buffer, and the payload behind it would wait on the peer's delayed
//! ACK. Both ends also set `TCP_NODELAY`, since every frame is a whole
//! message that the peer is waiting for.
//!
//! The payload path has no intermediate tree: [`encode`] has each message
//! write its JSON text straight into the one output buffer, fields in
//! ascending key order (`tests/wire_golden.rs` pins the bytes), and
//! [`decode`] validates the payload's UTF-8 once and then has the message
//! read itself field by field from the parser, borrowing keys and plain
//! strings from the payload. Decoding is linear in the payload size, and
//! the parser refuses nesting deeper than [`serde::json::MAX_DEPTH`], so a
//! frame of `[`s is [`WireError::Malformed`], not a stack overflow.
//!
//! Every failure is a typed [`WireError`]; no input, however truncated,
//! garbled or deeply nested, panics the decoder (the codec proptests pin
//! this down).

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

/// Default per-frame size bound (16 MiB): generous enough for an inline
/// problem with a few hundred thousand points, small enough that a bogus
/// length prefix cannot make a peer allocate without limit.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Why a frame could not be read, written, or decoded.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure underneath the frame layer.
    Io(io::Error),
    /// The stream ended in the middle of a frame (header or payload) —
    /// distinct from a clean close at a frame boundary, which the read
    /// path reports as `None`.
    Truncated,
    /// The declared payload length exceeds the size bound; the stream is
    /// desynchronised and must be closed.
    FrameTooLarge { len: usize, max: usize },
    /// The payload arrived intact but is not the expected message (bad
    /// UTF-8, bad JSON, or a JSON shape the type rejects).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Writes one frame (length prefix + payload) in one `write_all`, and
/// flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: usize) -> Result<(), WireError> {
    if payload.len() > max {
        return Err(WireError::FrameTooLarge {
            len: payload.len(),
            max,
        });
    }
    let len = u32::try_from(payload.len()).map_err(|_| WireError::FrameTooLarge {
        len: payload.len(),
        max,
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame).map_err(WireError::Io)?;
    w.flush().map_err(WireError::Io)
}

/// Reads one frame's payload. `Ok(None)` is a clean close: the peer shut
/// the stream down exactly at a frame boundary. An EOF anywhere *inside*
/// a frame is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(WireError::FrameTooLarge { len, max });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => WireError::Truncated,
        _ => WireError::Io(e),
    })?;
    Ok(Some(payload))
}

/// Encodes a message into frame-payload bytes.
pub fn encode<T: Serialize + ?Sized>(msg: &T) -> Vec<u8> {
    serde::json::to_string(msg).into_bytes()
}

/// Decodes frame-payload bytes into a message.
pub fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::Malformed(format!("invalid UTF-8: {e}")))?;
    serde::json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
}

/// [`encode`] + [`write_frame`].
pub fn send_message<T: Serialize + ?Sized>(
    w: &mut impl Write,
    msg: &T,
    max: usize,
) -> Result<(), WireError> {
    write_frame(w, &encode(msg), max)
}

/// [`read_frame`] + [`decode`]; `Ok(None)` is the peer's clean close.
pub fn recv_message<T: Deserialize>(r: &mut impl Read, max: usize) -> Result<Option<T>, WireError> {
    match read_frame(r, max)? {
        Some(payload) => decode(&payload).map(Some),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", 64).unwrap();
        write_frame(&mut buf, b"", 64).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF");
    }

    /// A transport that records every call reaching it, vectored or not.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<Vec<u8>>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls.push(buf.to_vec());
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            let call: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            let len = call.len();
            self.calls.push(call);
            Ok(len)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_reaches_the_transport_in_one_write() {
        // The server's and client's writer: a default-capacity `BufWriter`
        // (8 KiB), so the frames land below, near and far above it.
        let mut w = io::BufWriter::new(Recorder::default());
        let payloads = [vec![7u8; 4], vec![b'x'; 7 * 1024], vec![b'y'; 100 * 1024]];
        for payload in &payloads {
            write_frame(&mut w, payload, DEFAULT_MAX_FRAME).unwrap();
        }
        let calls = &w.get_ref().calls;
        assert_eq!(calls.len(), payloads.len(), "one write per frame");
        for (call, payload) in calls.iter().zip(&payloads) {
            assert_eq!(call.len(), 4 + payload.len());
            assert_eq!(call[..4], (payload.len() as u32).to_be_bytes());
            assert_eq!(&call[4..], payload);
        }
    }

    #[test]
    fn truncated_header_and_payload_are_typed_errors() {
        let mut full = Vec::new();
        write_frame(&mut full, b"payload", 64).unwrap();
        for cut in 1..full.len() {
            let mut r = io::Cursor::new(full[..cut].to_vec());
            assert!(
                matches!(read_frame(&mut r, 64), Err(WireError::Truncated)),
                "cut at {cut} must be Truncated"
            );
        }
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &[0u8; 100], 64),
            Err(WireError::FrameTooLarge { len: 100, max: 64 })
        ));
        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = io::Cursor::new(evil);
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn garbage_payload_decodes_to_malformed_not_panic() {
        assert!(matches!(
            decode::<u64>(&[0xff, 0xfe, 0x00]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode::<u64>(b"{not json"),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode::<u64>(b"\"a string, not a number\""),
            Err(WireError::Malformed(_))
        ));
    }
}
