//! The HTTP server proper: a `TcpListener` accept loop on its own
//! thread, handing each connection to a persistent handler thread that
//! answers its one request.
//!
//! Routes (each with its allowed methods — anything else on a known
//! path is `405` with an `Allow` header, unknown paths are `404`):
//!
//! - `GET /metrics` — Prometheus text exposition of a fresh
//!   [`telemetry::snapshot`];
//! - `GET /healthz` — `ok\n`, for liveness probes and smoke tests;
//! - `GET /quitquitquit` — stops characterization intake (when a
//!   service is attached) and signals [`MetricsServer::wait_quit`], the
//!   Borg-style remote shutdown knob the CI smoke test uses to end a
//!   `--serve` run without killing the process;
//! - `POST /v1/characterize` — the characterization API (only when the
//!   server was built with [`MetricsServer::bind_with`] and a
//!   [`CharacterizeService`]): JSON in, cached JSON out, cache status
//!   in the `X-NVFF-Cache` header.
//!
//! **Thread model.** Connections are served concurrently — required for
//! the service shapes: coalescing is only observable when several
//! requests are in flight at once, and a long characterization must not
//! block a metrics scrape. The accept thread pushes each accepted
//! stream onto one handoff queue (a `Mutex<VecDeque<TcpStream>>` plus a
//! `Condvar`); handler threads (`nvff-serve/conn`) park on it, take a
//! stream, answer it, close it, and park again. A new handler is
//! spawned only when every existing one is busy, so a steady stream of
//! requests reuses the same few threads instead of paying a thread
//! spawn and join per connection. Busy plus queued connections count
//! against [`MAX_ACTIVE_CONNECTIONS`]; past it the accept thread
//! answers `503` inline, which also caps the handler count. Handlers
//! live until [`MetricsServer::shutdown`], which closes the handoff,
//! lets them finish every connection already accepted, and joins them.
//!
//! Every socket the listener accepts inherits its
//! [`READ_TIMEOUT`](crate::READ_TIMEOUT) receive timeout, so a
//! request's first read needs no `setsockopt` of its own.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::OwnedFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::api::CharacterizeService;
use crate::http::{
    read_request, write_response, write_response_with, ReadError, Request, DEFAULT_MAX_BODY_BYTES,
    READ_TIMEOUT,
};
use crate::metrics::render_prometheus;

/// Most connections in hand at once, busy or queued for a handler;
/// beyond it new connections get an inline `503` from the accept
/// thread. A handler is spawned only for a connection no other handler
/// is free to take, so this also bounds the handler thread count.
pub const MAX_ACTIVE_CONNECTIONS: usize = 64;

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json";

/// State shared between the accept thread and the owning handle.
struct Shared {
    /// Set once `/quitquitquit` has been served (or `shutdown` ran).
    quit: Mutex<bool>,
    /// Woken when `quit` flips to true.
    quit_cv: Condvar,
    /// Tells the accept loop to exit at its next wakeup.
    stop: AtomicBool,
    /// The characterization service, when this server fronts one.
    service: Option<Arc<CharacterizeService>>,
    /// Accepted connections on their way to the handler threads.
    handoff: Mutex<Handoff>,
    /// Woken when a connection is queued or the handoff closes.
    handoff_cv: Condvar,
}

/// The accept thread's queue of connections for the handler threads.
struct Handoff {
    /// Accepted connections no handler has taken yet.
    queue: VecDeque<TcpStream>,
    /// Connections accepted and not yet closed: queued plus busy.
    active: usize,
    /// Set at shutdown: handlers exit once the queue is empty.
    closed: bool,
}

impl Shared {
    fn handoff(&self) -> MutexGuard<'_, Handoff> {
        self.handoff
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A running service handle. Dropping it shuts the server down, joins
/// its threads, and drains any attached characterization service.
///
/// The name is historical — since the characterization API landed the
/// server serves more than metrics, but every bench binary and script
/// spells `MetricsServer`, and renaming would churn them for no
/// behavioral gain.
pub struct MetricsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for an
    /// OS-assigned port — read it back with [`local_addr`]) and starts
    /// serving metrics routes on a background thread.
    ///
    /// [`local_addr`]: MetricsServer::local_addr
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::bind_with(addr, None)
    }

    /// [`bind`](Self::bind), optionally attaching a characterization
    /// service that handles `POST /v1/characterize`.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        service: Option<Arc<CharacterizeService>>,
    ) -> std::io::Result<Self> {
        let listener = with_read_timeout(TcpListener::bind(addr)?)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            quit: Mutex::new(false),
            quit_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            service,
            handoff: Mutex::new(Handoff {
                queue: VecDeque::new(),
                active: 0,
                closed: false,
            }),
            handoff_cv: Condvar::new(),
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("nvff-serve".into())
            .spawn(move || accept_loop(&listener, &loop_shared))
            .expect("spawn metrics server thread");
        Ok(Self {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    /// The address actually bound — useful with port `0`.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until `/quitquitquit` is served or `timeout` elapses.
    /// Returns `true` if quit was requested, `false` on timeout. Pass
    /// `None` to wait indefinitely.
    pub fn wait_quit(&self, timeout: Option<Duration>) -> bool {
        let guard = self
            .shared
            .quit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match timeout {
            None => {
                let guard = self
                    .shared
                    .quit_cv
                    .wait_while(guard, |quit| !*quit)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                *guard
            }
            Some(timeout) => {
                let (guard, _) = self
                    .shared
                    .quit_cv
                    .wait_timeout_while(guard, timeout, |quit| !*quit)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                *guard
            }
        }
    }

    /// Stops the accept loop, joins every server thread, and drains the
    /// attached characterization service (finishing its backlog).
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept loop is likely blocked in accept(); poke it with a
        // throwaway connection so it observes the stop flag.
        if let Ok(mut stream) = TcpStream::connect(self.addr) {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        if let Some(service) = &self.shared.service {
            service.drain();
        }
        signal_quit(&self.shared);
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn signal_quit(shared: &Shared) {
    let mut quit = shared
        .quit
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *quit = true;
    shared.quit_cv.notify_all();
}

/// Sets [`READ_TIMEOUT`] as the listening socket's receive timeout.
/// Accepted sockets inherit it, so every connection starts armed for
/// its first read. `std` only exposes the option on `TcpStream`; the
/// descriptor is the same socket either way. On the listener itself the
/// option bounds each `accept` wait, so an idle accept loop wakes once
/// per [`READ_TIMEOUT`] with an error it skips, and accepts again.
fn with_read_timeout(listener: TcpListener) -> std::io::Result<TcpListener> {
    let socket = TcpStream::from(OwnedFd::from(listener));
    socket.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(TcpListener::from(OwnedFd::from(socket)))
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let mut handoff = shared.handoff();
        if handoff.active >= MAX_ACTIVE_CONNECTIONS {
            drop(handoff);
            write_response(&mut stream, 503, TEXT, "server overloaded\n");
            continue;
        }
        handoff.active += 1;
        handoff.queue.push_back(stream);
        // Handlers not holding a connection take queued ones; spawn
        // only when every handler already has one. A handler is added
        // only while there are fewer than the active connections, so
        // their number never exceeds the cap.
        let spawn = handlers.len() < handoff.active;
        drop(handoff);
        shared.handoff_cv.notify_one();
        if !spawn {
            continue;
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("nvff-serve/conn".into())
            .spawn(move || handler_loop(&conn_shared));
        match spawned {
            Ok(handle) => handlers.push(handle),
            Err(_) => {
                // The OS is out of threads: give up one queued
                // connection (the client sees a reset and retries), so
                // none waits for a handler that will never exist.
                let mut handoff = shared.handoff();
                if handoff.queue.pop_back().is_some() {
                    handoff.active -= 1;
                }
            }
        }
    }
    shared.handoff().closed = true;
    shared.handoff_cv.notify_all();
    for handle in handlers {
        let _ = handle.join();
    }
}

/// One persistent handler: take a connection, answer it, close it,
/// repeat until the handoff is closed and empty.
fn handler_loop(shared: &Shared) {
    let mut handoff = shared.handoff();
    loop {
        let Some(mut stream) = handoff.queue.pop_front() else {
            if handoff.closed {
                return;
            }
            handoff = shared
                .handoff_cv
                .wait(handoff)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            continue;
        };
        drop(handoff);
        // A panicking request must not take the handler (and its slot)
        // down with it; the client sees the connection close.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| handle(&mut stream, shared)));
        handoff = shared.handoff();
        handoff.active -= 1;
        // Close only after the slot is free: a client that has seen
        // the close never finds its connection still counted.
        drop(stream);
    }
}

/// Allowed methods for `path`, or `None` for unrouted paths. The
/// characterize route only exists when a service is attached — without
/// one the path 404s like any other stranger.
fn allowed_methods(path: &str, has_service: bool) -> Option<&'static [&'static str]> {
    match path {
        "/metrics" | "/healthz" | "/quitquitquit" => Some(&["GET"]),
        "/v1/characterize" if has_service => Some(&["POST"]),
        _ => None,
    }
}

fn handle(stream: &mut TcpStream, shared: &Shared) {
    let max_body = shared
        .service
        .as_deref()
        .map_or(DEFAULT_MAX_BODY_BYTES, CharacterizeService::max_body_bytes);
    let req = match read_request(stream, max_body) {
        Ok(req) => req,
        Err(ReadError::Malformed) => {
            write_response(stream, 400, TEXT, "bad request\n");
            return;
        }
        Err(ReadError::BodyTooLarge { limit }) => {
            // Drain what the client already sent before responding:
            // closing a socket with unread bytes in its receive buffer
            // turns the close into a TCP reset, which would discard the
            // 413 before the client can read it.
            discard_excess_body(stream);
            write_response(
                stream,
                413,
                TEXT,
                &format!("request body exceeds {limit} bytes\n"),
            );
            return;
        }
    };
    let Some(allowed) = allowed_methods(&req.path, shared.service.is_some()) else {
        write_response(stream, 404, TEXT, "not found\n");
        return;
    };
    if !allowed.contains(&req.method.as_str()) {
        write_response_with(
            stream,
            405,
            TEXT,
            &[("Allow", &allowed.join(", "))],
            "method not allowed\n",
        );
        return;
    }
    match req.path.as_str() {
        "/metrics" => {
            let body = render_prometheus(&telemetry::snapshot());
            write_response(
                stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/healthz" => write_response(stream, 200, TEXT, "ok\n"),
        "/quitquitquit" => {
            // Stop intake before acknowledging: a client that sees the
            // response can rely on subsequent submissions being refused.
            if let Some(service) = &shared.service {
                service.set_draining();
            }
            write_response(stream, 200, TEXT, "quitting\n");
            signal_quit(shared);
        }
        "/v1/characterize" => {
            let service = shared.service.as_deref().expect("routed only with service");
            characterize(stream, service, &req);
        }
        _ => unreachable!("allowed_methods covered every routed path"),
    }
}

/// Reads and discards whatever body the client has in flight, bounded
/// in bytes and time, so the rejection response survives the close. A
/// client insisting on streaming past the bound gets the reset it
/// earned.
fn discard_excess_body(stream: &mut TcpStream) {
    use std::io::Read;
    const DRAIN_MAX: usize = 256 * 1024;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    let mut drained = 0;
    while drained < DRAIN_MAX {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Runs one characterize request and writes the response, translating
/// [`crate::api::ApiResponse`] into status + headers.
fn characterize(stream: &mut TcpStream, service: &CharacterizeService, req: &Request) {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        write_response(
            stream,
            400,
            JSON,
            &crate::api::render_error("body is not UTF-8"),
        );
        return;
    };
    let response = service.handle(body);
    let retry_after = response.retry_after_s.map(|s| s.to_string());
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(status) = response.cache_status {
        headers.push(("X-NVFF-Cache", status));
    }
    if let Some(seconds) = retry_after.as_deref() {
        headers.push(("Retry-After", seconds));
    }
    write_response_with(stream, response.status, JSON, &headers, &response.body);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first read of every request relies on this: accepted
    /// sockets start with the listener's receive timeout (the kernel
    /// may round it up to its tick).
    #[test]
    fn accepted_sockets_inherit_the_listener_read_timeout() {
        let listener =
            with_read_timeout(TcpListener::bind("127.0.0.1:0").expect("bind")).expect("timeout");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let timeout = accepted
            .read_timeout()
            .expect("read timeout")
            .expect("a timeout is set");
        assert!(
            timeout >= READ_TIMEOUT && timeout < READ_TIMEOUT + Duration::from_millis(100),
            "{timeout:?}"
        );
    }
}
