//! A blocking client for the `sentineld` wire protocol.
//!
//! Thin by design: requests are [`Json`] frames built by the caller (or
//! the typed convenience methods here), responses come back as [`Json`]
//! frames. Streamed runs invoke a callback per `step` frame and return the
//! terminal frame.

use crate::codec::{read_frame, write_frame, WireError, MAX_FRAME_BYTES_DEFAULT};
use sentinel_util::Json;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read or write).
    Io(io::Error),
    /// The codec could not produce a frame.
    Wire(WireError),
    /// The server answered with an error frame: `(code, message)`.
    Server(String, String),
    /// The server answered with a frame the client did not expect.
    Unexpected(Json),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server(code, message) => write!(f, "server error [{code}]: {message}"),
            ClientError::Unexpected(frame) => write!(f, "unexpected frame: {frame}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

fn str_member(frame: &Json, key: &str) -> Option<String> {
    match frame.get(key) {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Classify a received frame: error frames become [`ClientError::Server`].
fn classify(frame: Json) -> Result<Json, ClientError> {
    if str_member(&frame, "type").as_deref() == Some("error") {
        let code = str_member(&frame, "code").unwrap_or_else(|| "unknown".into());
        let message = str_member(&frame, "message").unwrap_or_default();
        return Err(ClientError::Server(code, message));
    }
    Ok(frame)
}

/// One connection to a `sentineld` server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Send one raw request frame and read one response frame. Error
    /// frames are surfaced as [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// Transport, codec, or server error.
    pub fn call(&mut self, request: &Json) -> Result<Json, ClientError> {
        write_frame(&mut self.stream, request)?;
        classify(read_frame(&mut self.stream, MAX_FRAME_BYTES_DEFAULT)?)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call), plus [`ClientError::Unexpected`] if the
    /// reply is not `pong`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let reply = self.call(&Json::obj([("type", Json::Str("ping".into()))]))?;
        match str_member(&reply, "type").as_deref() {
            Some("pong") => Ok(()),
            _ => Err(ClientError::Unexpected(reply)),
        }
    }

    /// Placement-plan query; `request` must be a full `plan` frame.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call), plus [`ClientError::Unexpected`] if the
    /// reply is not a `plan` frame.
    pub fn plan(&mut self, request: &Json) -> Result<Json, ClientError> {
        let reply = self.call(request)?;
        match str_member(&reply, "type").as_deref() {
            Some("plan") => Ok(reply),
            _ => Err(ClientError::Unexpected(reply)),
        }
    }

    /// Streamed run: send a `run` frame, invoke `on_step` for every `step`
    /// frame, and return the terminal `run_complete` frame.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call); a mid-stream error frame aborts with
    /// [`ClientError::Server`].
    pub fn run_streamed(
        &mut self,
        request: &Json,
        mut on_step: impl FnMut(&Json),
    ) -> Result<Json, ClientError> {
        write_frame(&mut self.stream, request)?;
        let first = classify(read_frame(&mut self.stream, MAX_FRAME_BYTES_DEFAULT)?)?;
        if str_member(&first, "type").as_deref() != Some("run_started") {
            return Err(ClientError::Unexpected(first));
        }
        loop {
            let frame = classify(read_frame(&mut self.stream, MAX_FRAME_BYTES_DEFAULT)?)?;
            match str_member(&frame, "type").as_deref() {
                Some("step") => on_step(&frame),
                Some("run_complete") => return Ok(frame),
                _ => return Err(ClientError::Unexpected(frame)),
            }
        }
    }

    /// Ask the server to shut down.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call), plus [`ClientError::Unexpected`] if the
    /// reply is not `shutting_down`.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let reply = self.call(&Json::obj([("type", Json::Str("shutdown".into()))]))?;
        match str_member(&reply, "type").as_deref() {
            Some("shutting_down") => Ok(()),
            _ => Err(ClientError::Unexpected(reply)),
        }
    }
}
