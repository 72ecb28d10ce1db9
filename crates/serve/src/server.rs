//! The HTTP server proper: a `TcpListener` accept loop on its own
//! thread, answering one request per connection on a short-lived
//! handler thread.
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
//! Connections are handled on their own threads — required for the
//! service shapes: coalescing is only observable when several requests
//! are in flight at once, and a long characterization must not block a
//! metrics scrape. The thread count is capped at
//! [`MAX_ACTIVE_CONNECTIONS`]; past that the accept loop answers `503`
//! inline rather than queueing unbounded handler threads.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::api::CharacterizeService;
use crate::http::{
    read_request, write_response, write_response_with, ReadError, Request, DEFAULT_MAX_BODY_BYTES,
};
use crate::metrics::render_prometheus;

/// Most connections served concurrently; beyond it new connections get
/// an inline `503` from the accept thread. Handler threads live for one
/// request (bounded by [`crate::http::READ_TIMEOUT`]), so this bounds
/// worst-case thread count, not steady-state throughput.
pub(crate) const MAX_ACTIVE_CONNECTIONS: usize = 64;

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
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            quit: Mutex::new(false),
            quit_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            service,
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

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Reap finished handlers; what's left is the live count.
        handlers.retain(|handle| !handle.is_finished());
        if handlers.len() >= MAX_ACTIVE_CONNECTIONS {
            write_response(&mut stream, 503, TEXT, "server overloaded\n");
            continue;
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("nvff-serve/conn".into())
            .spawn(move || handle(&mut stream, &conn_shared));
        if let Ok(handle) = spawned {
            handlers.push(handle);
        }
        // On spawn failure (the OS is out of threads) the connection is
        // dropped; the client sees a reset and retries.
    }
    for handle in handlers {
        let _ = handle.join();
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
