//! End-to-end tests over a real TCP socket: bind on port 0, record
//! telemetry, scrape `/metrics`, and check the exposition matches the
//! registry snapshot exactly; then the server's thread model — the
//! connection cap, handler reuse, and no head-of-line blocking.
//!
//! The scrape scenarios share one test function, and every test holds
//! [`serial`] while it runs: the telemetry registry is process-global,
//! and the handler-reuse test counts the process's handler threads, so
//! two servers alive at once would race.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use serve::{CharacterizeService, MetricsServer, ServiceOptions};

/// Runs the tests of this file one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sends `request` (possibly empty) and reads the whole response:
/// returns (status, body).
fn exchange(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header block");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_owned())
}

/// Minimal scrape client mirroring `examples/scrape.rs`.
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn scrape_matches_the_live_snapshot() {
    let _serial = serial();
    telemetry::reset_for_tests();
    telemetry::init(telemetry::TraceMode::Collect);
    {
        let _run = telemetry::span("serve_test");
        telemetry::counter("serve.requests", 41);
        telemetry::counter("serve.requests", 1);
        for k in 0..20 {
            telemetry::histogram("serve.dt_s", 1e-12 * f64::from(1 << (k % 10)));
        }
    }

    let mut server = MetricsServer::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr();

    // /healthz first — liveness must not depend on telemetry state.
    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // The scrape must agree with snapshot() taken around it. Counters
    // and histogram contents are stable between the two snapshots
    // (nothing records concurrently); wall_s is the one field that
    // moves, so it is checked for presence rather than value.
    let before = telemetry::snapshot();
    let (status, scraped) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let after = telemetry::snapshot();
    assert_eq!(
        before.counters, after.counters,
        "test assumes a quiet registry"
    );

    let expect_before = serve::render_prometheus(&before);
    // Strip the wall-clock gauge line from both before comparing.
    let strip_wall = |text: &str| -> String {
        text.lines()
            .filter(|l| !l.starts_with("nvff_wall_seconds "))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    assert_eq!(
        strip_wall(&scraped),
        strip_wall(&expect_before),
        "scrape must be render_prometheus(snapshot()) verbatim"
    );

    // Spot-check the exposition content itself.
    assert!(
        scraped.contains("nvff_serve_requests_total 42\n"),
        "{scraped}"
    );
    assert!(
        scraped.contains("nvff_serve_dt_s_bucket{le=\"+Inf\"} 20\n"),
        "{scraped}"
    );
    assert!(scraped.contains("nvff_serve_dt_s_count 20\n"), "{scraped}");
    assert!(
        scraped.contains("nvff_span_seconds_count{path=\"serve_test\"} 1\n"),
        "{scraped}"
    );

    // Unknown routes 404; non-GET methods 405.
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 405 "), "{response}");
    }

    // /quitquitquit wakes wait_quit.
    assert!(
        !server.wait_quit(Some(Duration::from_millis(10))),
        "no quit yet"
    );
    let (status, _) = get(addr, "/quitquitquit");
    assert_eq!(status, 200);
    assert!(
        server.wait_quit(Some(Duration::from_secs(10))),
        "quit observed"
    );

    server.shutdown();
    telemetry::init(telemetry::TraceMode::Off);
    telemetry::reset_for_tests();
}

/// A client dripping one byte per second resets any per-read timeout
/// forever; the per-request deadline must still answer it 400 within
/// `READ_TIMEOUT`. This scenario never touches the telemetry registry,
/// so it can run beside the scrape test.
#[test]
fn dripping_client_is_cut_off_at_the_request_deadline() {
    let _serial = serial();
    let mut server = MetricsServer::bind("127.0.0.1:0").expect("bind port 0");
    let limit = serve::READ_TIMEOUT + Duration::from_secs(1);
    let start = Instant::now();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("timeout");
    let mut request = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".iter();
    let mut response = Vec::new();
    let mut buf = [0u8; 256];
    while response.is_empty() && start.elapsed() < limit {
        if let Some(&byte) = request.next() {
            // The server may already have hung up; the read below tells.
            let _ = stream.write_all(&[byte]);
        }
        match stream.read(&mut buf) {
            Ok(n) if n > 0 => response.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            _ => break,
        }
    }
    let elapsed = start.elapsed();
    let _ = stream.read_to_end(&mut response);
    let response = String::from_utf8_lossy(&response);
    assert!(response.starts_with("HTTP/1.1 400 "), "{response:?}");
    assert!(elapsed <= limit, "answered after {elapsed:?}");
    server.shutdown();
}

/// With the cap's worth of idle connections held open (each parks a
/// handler in its first read), the next connection is answered `503`
/// inline by the accept thread; once they close, requests serve again.
#[test]
fn connections_past_the_cap_get_an_inline_503_until_slots_free() {
    let _serial = serial();
    let mut server = MetricsServer::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr();
    let idle: Vec<TcpStream> = (0..serve::MAX_ACTIVE_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // The accept thread answers without reading; sending nothing keeps
    // the close clean, so the 503 cannot be lost to a reset.
    let (status, body) = exchange(addr, "");
    assert_eq!((status, body.as_str()), (503, "server overloaded\n"));

    // Each handler sees its client's EOF and frees the slot.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match get(addr, "/healthz") {
            (200, body) => {
                assert_eq!(body, "ok\n");
                break;
            }
            (status, body) => assert_eq!((status, body.as_str()), (503, "server overloaded\n")),
        }
        assert!(Instant::now() < deadline, "slots never freed");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}

/// Sequential requests are served by parked handlers, not a thread per
/// connection: the thread that answered the first request is still
/// there after 200 more, with at most one other beside it.
#[cfg(target_os = "linux")]
#[test]
fn sequential_requests_reuse_the_handler_threads() {
    let _serial = serial();
    // Thread ids of this process's handler threads.
    let handlers = || -> std::collections::BTreeSet<String> {
        std::fs::read_dir("/proc/self/task")
            .expect("task list")
            .filter_map(|task| {
                let task = task.ok()?;
                let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
                let tid = task.file_name().into_string().ok()?;
                (comm.trim_end() == "nvff-serve/conn").then_some(tid)
            })
            .collect()
    };
    let mut server = MetricsServer::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr();
    assert_eq!(get(addr, "/healthz").0, 200);
    let first = handlers();
    assert_eq!(first.len(), 1, "{first:?}");
    for _ in 0..200 {
        assert_eq!(get(addr, "/healthz").0, 200);
    }
    let after = handlers();
    assert!(
        after.len() <= 2 && after.is_superset(&first),
        "handler threads {first:?} after one request, {after:?} after 201"
    );
    server.shutdown();
}

/// A connection waiting on a cold characterization holds one handler;
/// a liveness probe arriving meanwhile gets another.
#[test]
fn healthz_answers_while_a_slow_miss_is_in_flight() {
    let _serial = serial();
    telemetry::reset_for_tests();
    telemetry::init(telemetry::TraceMode::Collect);
    let service = Arc::new(CharacterizeService::new(&ServiceOptions {
        workers: 1,
        ..ServiceOptions::default()
    }));
    let mut server = MetricsServer::bind_with("127.0.0.1:0", Some(service)).expect("bind port 0");
    let addr = server.local_addr();
    let slow =
        std::thread::spawn(move || post(addr, "/v1/characterize", r#"{"variant":"nv_word_4"}"#));
    // The miss counter moves when the job is queued; from then until
    // its response the request is in flight.
    let misses = || {
        telemetry::snapshot()
            .counters
            .iter()
            .find(|(name, _)| name == "serve.cache.misses")
            .map_or(0, |(_, n)| *n)
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while misses() == 0 {
        assert!(Instant::now() < deadline, "the slow miss never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    assert!(
        !slow.is_finished(),
        "the probe should have been answered before the characterization"
    );
    let (status, body) = slow.join().expect("slow request");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
    telemetry::init(telemetry::TraceMode::Off);
    telemetry::reset_for_tests();
}
