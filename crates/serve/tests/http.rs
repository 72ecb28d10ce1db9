//! End-to-end test over a real TCP socket: bind on port 0, record
//! telemetry, scrape `/metrics`, and check the exposition matches the
//! registry snapshot exactly.
//!
//! The scrape scenarios share one test function: the telemetry registry
//! is process-global, so splitting them across `#[test]`s would race
//! under the multi-threaded harness.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serve::MetricsServer;

/// Minimal scrape client mirroring `examples/scrape.rs`: returns
/// (status, body).
fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("request");
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

#[test]
fn scrape_matches_the_live_snapshot() {
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
