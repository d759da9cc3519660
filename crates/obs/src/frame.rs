//! The workspace's one socket transport: a length-prefixed frame codec
//! and the unix-socket server every endpoint runs on.
//!
//! The introspection endpoint ([`crate::introspect`]), the serving
//! front door and the shard workers (`metadse-serve`) all speak one
//! framing and run on one [`FrameServer`]:
//!
//! ```text
//! frame := len:u32-le payload:[len bytes]        (len ≤ MAX_FRAME)
//! ```
//!
//! The codec is deliberately tiny and total: a frame either round-trips
//! exactly or fails with a typed `io::Error` — `InvalidInput` for an
//! oversize write, `InvalidData` for a length prefix beyond
//! [`MAX_FRAME`] (rejected *before* allocating), and `UnexpectedEof`
//! for a frame torn at any byte. Reads are `read_exact`-based, so
//! split/partial delivery (a peer writing one byte at a time, a kernel
//! buffer boundary mid-prefix) reassembles transparently; the property
//! suite in `tests/frame.rs` drives truncation at every byte prefix and
//! 1-byte-chunk readers over a corpus that includes zero-length frames.
//!
//! ## The server
//!
//! [`FrameServer::bind`] binds a unix socket (clearing a stale socket
//! file first) and runs a named acceptor thread that polls a
//! nonblocking listener every millisecond. Each accepted connection
//! gets its own handler thread, which answers request frames with reply
//! frames through a bytes-in, bytes-out handler until the peer hangs
//! up. What the bytes mean is the embedder's business. Connections are
//! concurrent: a client holding an idle connection never delays another
//! client. [`FrameServer::shutdown`] (or `Drop`) stops the acceptor,
//! joins every handler thread — each notices the stop within one
//! 100 ms idle poll while its connection sits idle — and removes the
//! socket file.

use std::io::{self, Read, Write};
#[cfg(unix)]
use std::path::{Path, PathBuf};
#[cfg(unix)]
use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(unix)]
use std::sync::{Arc, Mutex};
#[cfg(unix)]
use std::time::Duration;

/// Upper bound on a single frame payload (1 MiB): large enough for any
/// metrics exposition or shard batch, small enough to reject a garbage
/// length prefix before allocating.
pub const MAX_FRAME: usize = 1 << 20;

/// Writes one length-prefixed frame to `w`.
///
/// # Errors
///
/// Returns `InvalidInput` when `payload` exceeds [`MAX_FRAME`], or any
/// underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame from `r`.
///
/// # Errors
///
/// Returns `InvalidData` on a length prefix beyond [`MAX_FRAME`],
/// `UnexpectedEof` on a torn frame, or any underlying I/O error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Short read timeout letting connection handlers observe the stop flag
/// while a peer holds the connection open idle.
#[cfg(unix)]
const IDLE_POLL: Duration = Duration::from_millis(100);

/// How long the acceptor sleeps when no connection is pending.
#[cfg(unix)]
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Per-frame budget once a frame has started, for both directions.
#[cfg(unix)]
const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// Waits for the next frame on a stream whose read timeout is
/// [`IDLE_POLL`], returning `Ok(None)` when `stop` was raised while the
/// connection sat idle.
///
/// The idle poll may only fire *between* frames: this reads the first
/// header byte under the short timeout, then switches the stream to a
/// generous per-frame timeout for the remainder, so a slow peer can
/// never desynchronize the framing by straddling a poll boundary.
///
/// # Errors
///
/// Peer hangup (`UnexpectedEof`), oversize frames (`InvalidData`), or
/// any underlying I/O error once a frame has started.
#[cfg(unix)]
fn read_frame_or_stop(
    stream: &mut std::os::unix::net::UnixStream,
    stop: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(None);
        }
        match stream.read(&mut first) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
    stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
    let result = read_frame(&mut (&first[..]).chain(&mut *stream));
    stream.set_read_timeout(Some(IDLE_POLL))?;
    result.map(Some)
}

/// Answers one request frame's payload with a reply payload; an error
/// closes the connection without a reply.
#[cfg(unix)]
type Handler = dyn Fn(&[u8]) -> io::Result<Vec<u8>> + Send + Sync;

/// A running frame server. Dropping it (or calling
/// [`shutdown`](FrameServer::shutdown)) stops the acceptor, joins every
/// connection handler, and removes the socket file.
///
/// The server itself holds no reference to its handler: once
/// `shutdown` returns, every copy of the handler (and whatever it
/// captured) has been dropped with the threads that ran it.
#[cfg(unix)]
pub struct FrameServer {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

#[cfg(unix)]
impl std::fmt::Debug for FrameServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameServer")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

#[cfg(unix)]
impl FrameServer {
    /// Binds `path` and serves `handler` on an acceptor thread named
    /// `name`, one handler thread per connection.
    ///
    /// A stale socket file at `path` is removed first (unix sockets do
    /// not unlink themselves when their process dies).
    ///
    /// # Errors
    ///
    /// Returns any bind or thread-spawn error.
    pub fn bind(
        path: &Path,
        name: &str,
        handler: impl Fn(&[u8]) -> io::Result<Vec<u8>> + Send + Sync + 'static,
    ) -> io::Result<FrameServer> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();
        let handler: Arc<Handler> = Arc::new(handler);
        let (accept_stop, accept_conns) = (Arc::clone(&stop), Arc::clone(&connections));
        let acceptor = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while !accept_stop.load(Ordering::Acquire) {
                    let Ok((stream, _)) = listener.accept() else {
                        // Nothing pending (WouldBlock), or a transient
                        // accept error such as ECONNABORTED.
                        std::thread::sleep(ACCEPT_POLL);
                        continue;
                    };
                    let (handler, stop) = (Arc::clone(&handler), Arc::clone(&accept_stop));
                    if let Ok(thread) = std::thread::Builder::new()
                        .spawn(move || converse(stream, &*handler, &stop))
                    {
                        let mut threads = accept_conns.lock().unwrap();
                        // Reap finished handlers so a long-lived server
                        // does not accumulate dead JoinHandles.
                        threads.retain(|t| !t.is_finished());
                        threads.push(thread);
                    }
                }
            })?;
        Ok(FrameServer {
            path: path.to_path_buf(),
            stop,
            acceptor: Some(acceptor),
            connections,
        })
    }

    /// The socket path this server is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stops accepting, joins the acceptor and every connection
    /// handler, and removes the socket file. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let threads: Vec<_> = self.connections.lock().unwrap().drain(..).collect();
        for thread in threads {
            let _ = thread.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(unix)]
impl Drop for FrameServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection's request/reply loop: runs until the peer hangs up,
/// the stream fails, the handler refuses, or `stop` is raised while the
/// connection is idle.
#[cfg(unix)]
fn converse(mut stream: std::os::unix::net::UnixStream, handler: &Handler, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(FRAME_TIMEOUT));
    while let Ok(Some(request)) = read_frame_or_stop(&mut stream, stop) {
        let Ok(reply) = handler(&request) else { return };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"health").unwrap();
        assert_eq!(&buf[..4], &6u32.to_le_bytes());
        let back = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(back, b"health");
    }

    #[test]
    fn zero_length_frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        assert_eq!(buf, 0u32.to_le_bytes());
        assert_eq!(read_frame(&mut &buf[..]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn frame_rejects_oversize_and_torn() {
        let mut sink = Vec::new();
        let big = vec![0u8; MAX_FRAME + 1];
        assert_eq!(
            write_frame(&mut sink, &big).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(sink.is_empty(), "nothing written before the size check");

        let bad_len = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert_eq!(
            read_frame(&mut &bad_len[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        let mut torn = Vec::new();
        write_frame(&mut torn, b"metrics").unwrap();
        torn.truncate(torn.len() - 3);
        assert_eq!(
            read_frame(&mut &torn[..]).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }
}
