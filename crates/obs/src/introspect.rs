//! The introspection protocol: a unix-socket endpoint answering
//! UTF-8 commands over the shared frame transport, plus the matching
//! client.
//!
//! No external dependencies, no HTTP: the workspace's hermetic-build
//! constraint rules out hyper/axum, and the consumers (CI smoke steps,
//! soak tests, the `metadse-introspect` bin) only need request/response
//! over a local socket. Framing and the server come from
//! [`crate::frame`]; the protocol on top of them is deliberately tiny:
//!
//! ```text
//! frame    := len:u32-le payload:[len bytes]          (len ≤ 1 MiB)
//! request  := frame of a UTF-8 command, e.g. "health", "trace?id=7"
//! response := frame of "ok\n<body>" or "err\n<message>"
//! ```
//!
//! One request frame per round-trip; connections may be reused for
//! further round-trips or dropped at will. [`serve_unix`] runs on the
//! same [`FrameServer`] as the serving data sockets, so introspection
//! connections are concurrent like data connections: a probe holding
//! its connection open never delays another probe. The endpoint is
//! sized for a handful of probes per second, not for request traffic
//! (the serving data path never goes through it).
//!
//! This module is transport only. What the commands *mean* is decided
//! by the embedding server through the [`Respond`] trait; the obs crate
//! stays ignorant of serving concepts.

use std::io;
#[cfg(unix)]
use std::sync::Arc;

#[cfg(unix)]
use crate::frame::FrameServer;

/// One introspection reply: success flag plus a UTF-8 body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// `true` → encoded as `ok\n<body>`, `false` → `err\n<body>`.
    pub ok: bool,
    /// Human- and machine-readable payload (plain text, one concern per
    /// line by convention).
    pub body: String,
}

impl Response {
    /// A success reply.
    pub fn ok(body: impl Into<String>) -> Response {
        Response {
            ok: true,
            body: body.into(),
        }
    }

    /// An error reply.
    pub fn err(body: impl Into<String>) -> Response {
        Response {
            ok: false,
            body: body.into(),
        }
    }

    /// Wire encoding: status line marker + `\n` + body.
    pub fn encode(&self) -> Vec<u8> {
        let status = if self.ok { "ok" } else { "err" };
        let mut out = Vec::with_capacity(status.len() + 1 + self.body.len());
        out.extend_from_slice(status.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    /// Parses a wire payload back into a response.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a malformed status line or non-UTF-8
    /// body.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let (status, body) = text.split_once('\n').unwrap_or((text, ""));
        match status {
            "ok" => Ok(Response::ok(body)),
            "err" => Ok(Response::err(body)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response status {other:?}"),
            )),
        }
    }
}

/// Command handler plugged into [`serve_unix`]. Implementations must be
/// cheap and non-blocking: each connection's thread calls them, and
/// several connections may call them at once.
pub trait Respond: Send + Sync + 'static {
    /// Answers one command (the request frame's UTF-8 payload).
    fn respond(&self, command: &str) -> Response;
}

impl<F> Respond for F
where
    F: Fn(&str) -> Response + Send + Sync + 'static,
{
    fn respond(&self, command: &str) -> Response {
        self(command)
    }
}

/// Binds `path` and serves `responder` on a [`FrameServer`], one
/// thread per connection.
///
/// A stale socket file at `path` is removed first (unix sockets do not
/// unlink themselves when their process dies).
///
/// # Errors
///
/// Returns any bind error.
#[cfg(unix)]
pub fn serve_unix(path: &std::path::Path, responder: Arc<dyn Respond>) -> io::Result<FrameServer> {
    FrameServer::bind(path, "metadse-introspect", move |request: &[u8]| {
        let response = match std::str::from_utf8(request) {
            Ok(command) => responder.respond(command.trim()),
            Err(_) => Response::err("request is not UTF-8"),
        };
        Ok(response.encode())
    })
}

/// One client round-trip: connect to `path`, send `command`, read the
/// reply.
///
/// # Errors
///
/// Returns connection, frame, or decode errors.
#[cfg(unix)]
pub fn query(path: &std::path::Path, command: &str) -> io::Result<Response> {
    use crate::frame::{read_frame, write_frame};
    use std::time::Duration;

    let mut stream = std::os::unix::net::UnixStream::connect(path)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write_frame(&mut stream, command.as_bytes())?;
    Response::decode(&read_frame(&mut stream)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_round_trip() {
        for r in [Response::ok("body\nlines"), Response::err("nope")] {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
        assert!(Response::decode(b"weird\nbody").is_err());
    }

    #[cfg(unix)]
    #[test]
    fn listener_round_trip_and_shutdown() {
        let dir = std::env::temp_dir().join(format!("metadse-introspect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("t.sock");
        let mut listener = serve_unix(
            &sock,
            Arc::new(|cmd: &str| {
                if cmd == "ping" {
                    Response::ok("pong")
                } else {
                    Response::err(format!("unknown command {cmd:?}"))
                }
            }),
        )
        .unwrap();

        let reply = query(&sock, "ping").unwrap();
        assert!(reply.ok);
        assert_eq!(reply.body, "pong");
        let reply = query(&sock, "nope").unwrap();
        assert!(!reply.ok);

        listener.shutdown();
        assert!(!sock.exists());
        assert!(query(&sock, "ping").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    fn ping_endpoint(tag: &str) -> (std::path::PathBuf, FrameServer) {
        let dir =
            std::env::temp_dir().join(format!("metadse-introspect-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("t.sock");
        let server = serve_unix(&sock, Arc::new(|_: &str| Response::ok("pong"))).unwrap();
        (sock, server)
    }

    /// One round-trip on an already open connection.
    #[cfg(unix)]
    fn ping(stream: &mut std::os::unix::net::UnixStream) -> io::Result<Response> {
        crate::frame::write_frame(stream, b"ping")?;
        Response::decode(&crate::frame::read_frame(stream)?)
    }

    /// A client that keeps its connection busy does not hold the
    /// endpoint: a second client's query is answered meanwhile.
    #[cfg(unix)]
    #[test]
    fn second_client_is_answered_while_first_keeps_querying() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let (sock, mut server) = ping_endpoint("concurrent");
        let done = Arc::new(AtomicBool::new(false));
        let (connected, first_ready) = std::sync::mpsc::channel();
        let busy = {
            let (sock, done) = (sock.clone(), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut stream = std::os::unix::net::UnixStream::connect(&sock).unwrap();
                assert!(ping(&mut stream).unwrap().ok);
                connected.send(()).unwrap();
                let mut round_trips = 1u64;
                while !done.load(Ordering::Acquire) {
                    assert!(ping(&mut stream).unwrap().ok);
                    round_trips += 1;
                }
                round_trips
            })
        };
        first_ready.recv().unwrap();
        let reply = query(&sock, "ping").expect("second client answered");
        assert_eq!(reply, Response::ok("pong"));
        done.store(true, Ordering::Release);
        assert!(busy.join().unwrap() > 1, "the first client kept querying");
        server.shutdown();
        let _ = std::fs::remove_dir_all(sock.parent().unwrap());
    }

    /// Shutdown joins a handler whose client holds an idle connection
    /// within a few idle polls.
    #[cfg(unix)]
    #[test]
    fn shutdown_is_prompt_while_a_client_idles() {
        let (sock, mut server) = ping_endpoint("idle");
        let mut idle = std::os::unix::net::UnixStream::connect(&sock).unwrap();
        assert!(ping(&mut idle).unwrap().ok);
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "shutdown took {:?}",
            started.elapsed()
        );
        assert!(!sock.exists());
        drop(idle);
        let _ = std::fs::remove_dir_all(sock.parent().unwrap());
    }
}
