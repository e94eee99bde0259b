//! The framed wire codec: length-prefixed compact JSON.
//!
//! Every message on a `sentineld` connection — in either direction — is one
//! *frame*: a 4-byte big-endian payload length followed by exactly that many
//! bytes of compact UTF-8 JSON. The length covers the payload only, not the
//! header. A zero-length frame is a protocol error (there is no empty JSON
//! document).
//!
//! The reader is written for untrusted peers: the claimed length is checked
//! against a caller-supplied ceiling *before* any allocation, payload bytes
//! go through [`Json::parse_bytes_limited`] (typed UTF-8 / depth / size
//! errors), and every failure mode is a distinct [`WireError`] variant so
//! the server can pick the right wire error code and connection policy.

use sentinel_util::{Json, JsonError};
use std::io::{self, Read, Write};

/// Default ceiling on a single frame's payload, in bytes (8 MiB). Large
/// enough for a full-trace streamed step of the biggest zoo model, small
/// enough that a hostile length header cannot balloon allocation.
pub const MAX_FRAME_BYTES_DEFAULT: usize = 8 << 20;

/// Read-side failure of one frame.
#[derive(Debug)]
pub enum WireError {
    /// Clean end-of-stream at a frame boundary: the peer closed after the
    /// last complete frame. Not an error in protocol terms.
    Closed,
    /// End-of-stream in the middle of a frame (header or payload): the
    /// frame can never complete and framing sync is lost.
    Truncated {
        /// Bytes of the current frame actually received.
        got: usize,
        /// Bytes the frame needed (header + payload).
        want: usize,
    },
    /// The header claims a payload larger than the ceiling. The payload is
    /// deliberately not consumed, so the connection must be closed.
    Oversized {
        /// Claimed payload length.
        len: usize,
        /// The ceiling it exceeded.
        max: usize,
    },
    /// The stream's read deadline expired with no bytes of a new frame
    /// consumed — the connection is merely idle, retry or shut down.
    Idle,
    /// Transport-level I/O failure.
    Io(io::Error),
    /// The payload arrived whole but is not acceptable JSON; the typed
    /// [`JsonError::kind`] distinguishes syntax, UTF-8 and depth failures.
    /// Framing sync is intact, so the connection can keep serving.
    Json(JsonError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated { got, want } => {
                write!(f, "truncated frame: got {got} of {want} bytes")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte limit")
            }
            WireError::Idle => write!(f, "read deadline expired between frames"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Json(e) => write!(f, "bad frame payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Whether a read timeout should be treated as "still waiting" rather than
/// a failure (interrupted reads are always retried).
fn is_wait(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Fill `buf` from `r`, tolerating read timeouts *only after* at least one
/// byte of the frame has been consumed (a peer mid-send is given unlimited
/// deadline extensions; an idle peer is not). Returns the number of bytes
/// read before end-of-stream, or an I/O error.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    frame_started: bool,
) -> Result<usize, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(filled),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_wait(e.kind()) => {
                if !frame_started && filled == 0 {
                    return Err(WireError::Idle);
                }
                // Mid-frame: the peer has committed to this frame, keep
                // waiting through further deadline ticks.
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(filled)
}

/// Read one frame from `r`, enforcing `max_bytes` on the payload.
///
/// # Errors
///
/// Every non-success outcome is a [`WireError`]; see the variants for the
/// failure taxonomy and whether framing sync survives.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<Json, WireError> {
    let mut header = [0u8; 4];
    let got = read_full(r, &mut header, false)?;
    if got == 0 {
        return Err(WireError::Closed);
    }
    if got < header.len() {
        return Err(WireError::Truncated { got, want: header.len() });
    }
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 {
        return Err(WireError::Json(sentinel_util::JsonError {
            offset: 0,
            message: "empty frame payload".to_owned(),
            kind: sentinel_util::JsonErrorKind::Syntax,
        }));
    }
    if len > max_bytes {
        return Err(WireError::Oversized { len, max: max_bytes });
    }
    let mut payload = vec![0u8; len];
    let got = read_full(r, &mut payload, true)?;
    if got < len {
        return Err(WireError::Truncated { got: 4 + got, want: 4 + len });
    }
    Json::parse_bytes_limited(&payload, max_bytes).map_err(WireError::Json)
}

/// Write `msg` as one compact frame.
///
/// # Errors
///
/// Propagates transport I/O errors; a payload past `u32::MAX` (never
/// produced by this codebase) is reported as [`io::ErrorKind::InvalidData`].
pub fn write_frame(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    let mut payload = String::new();
    msg.write_compact(&mut payload);
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_util::JsonErrorKind;

    fn frame_bytes(msg: &Json) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, msg).unwrap();
        out
    }

    #[test]
    fn frames_round_trip() {
        let msg = Json::obj([
            ("type", Json::Str("ping".into())),
            ("n", Json::U64(7)),
        ]);
        let bytes = frame_bytes(&msg);
        assert_eq!(&bytes[..4], &(bytes.len() as u32 - 4).to_be_bytes());
        let back = read_frame(&mut &bytes[..], MAX_FRAME_BYTES_DEFAULT).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn clean_eof_is_closed_and_partial_eof_is_truncated() {
        assert!(matches!(read_frame(&mut &[][..], 64), Err(WireError::Closed)));
        let bytes = frame_bytes(&Json::Null);
        for cut in 1..bytes.len() {
            match read_frame(&mut &bytes[..cut], 64) {
                Err(WireError::Truncated { got, want }) => {
                    assert!(got < want, "cut {cut}: {got} vs {want}")
                }
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_header_is_rejected_without_allocation() {
        let mut bytes = (u32::MAX).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"ignored");
        match read_frame(&mut &bytes[..], 1024) {
            Err(WireError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn bad_payloads_carry_typed_json_errors() {
        let mut syntactic = 5u32.to_be_bytes().to_vec();
        syntactic.extend_from_slice(b"{oops");
        match read_frame(&mut &syntactic[..], 64) {
            Err(WireError::Json(e)) => assert_eq!(e.kind, JsonErrorKind::Syntax),
            other => panic!("expected Json, got {other:?}"),
        }

        let mut invalid_utf8 = 3u32.to_be_bytes().to_vec();
        invalid_utf8.extend_from_slice(&[b'"', 0xC0, b'"']);
        match read_frame(&mut &invalid_utf8[..], 64) {
            Err(WireError::Json(e)) => assert_eq!(e.kind, JsonErrorKind::InvalidUtf8),
            other => panic!("expected Json, got {other:?}"),
        }

        let deep = "[".repeat(200) + &"]".repeat(200);
        let mut nested = (deep.len() as u32).to_be_bytes().to_vec();
        nested.extend_from_slice(deep.as_bytes());
        match read_frame(&mut &nested[..], 1 << 12) {
            Err(WireError::Json(e)) => assert_eq!(e.kind, JsonErrorKind::TooDeep),
            other => panic!("expected Json, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_frames_are_protocol_errors() {
        let bytes = 0u32.to_be_bytes();
        assert!(matches!(
            read_frame(&mut &bytes[..], 64),
            Err(WireError::Json(e)) if e.kind == JsonErrorKind::Syntax
        ));
    }
}
