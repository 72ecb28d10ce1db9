//! End-to-end test of the characterization service over a real
//! loopback socket: the cache contract (byte-identical responses,
//! exactly one underlying simulation per fingerprint), single-flight
//! coalescing under concurrency, the HTTP edges (405 + `Allow`, 413,
//! 400), and graceful drain via `/quitquitquit`.
//!
//! Single test function: the telemetry registry is process-global, so
//! splitting these scenarios across `#[test]`s would race under the
//! multi-threaded harness.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serve::{CharacterizeService, MetricsServer, ServiceOptions};

/// One raw HTTP exchange; returns (status, headers, body).
fn exchange(addr: SocketAddr, request: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    // Ignore write errors: a 413 response arrives while the body is
    // still being written, and the server is allowed to hang up on it.
    let _ = stream.write_all(request.as_bytes());
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or_else(|| {
        panic!(
            "no header block in {response:?} for {:?}",
            request.lines().next()
        )
    });
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(name, value)| (name.trim().to_owned(), value.trim().to_owned()))
        .collect();
    (status, headers, body.to_owned())
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Reads a counter's value out of a Prometheus scrape (0 if absent —
/// counters only appear after their first increment).
fn counter_value(scrape: &str, metric: &str) -> u64 {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{metric} ")))
        .map_or(0, |value| value.trim().parse().expect("counter value"))
}

#[test]
fn characterize_service_end_to_end() {
    telemetry::reset_for_tests();
    telemetry::init(telemetry::TraceMode::Collect);
    let options = ServiceOptions {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 256,
        cache_dir: None,
        max_body_bytes: 2048,
    };
    let service = Arc::new(CharacterizeService::new(&options));
    let mut server = MetricsServer::bind_with("127.0.0.1:0", Some(service)).expect("bind port 0");
    let addr = server.local_addr();
    let misses = || counter_value(&get(addr, "/metrics").2, "nvff_serve_cache_misses_total");
    let deadline = Instant::now() + Duration::from_secs(30);
    let wait_for_misses = |n: u64, what: &str| {
        while misses() < n {
            assert!(Instant::now() < deadline, "{what} never reached the queue");
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    // --- Single-flight coalescing under real concurrency. ---
    // Followers posted while the leader is in flight must coalesce
    // rather than compute again. The service has one worker, and the
    // first request (a cold 4-bit-word characterization, also the
    // subject of the cache contract below) occupies it; the leader, a
    // 200k-sample `wer_tail` point, is posted as soon as that request
    // is queued and waits behind it. A request is in flight from the
    // moment it is queued (the misses counter moves under the same lock
    // that registers it), so the followers' window is the word's
    // computation plus the leader's own. Measured on a 2-vCPU x86 box:
    // about 660 ms in debug (leader alone 265 ms) and 53 ms in release
    // (leader alone 16 ms), against under 4 ms for the three followers
    // to reach the queue.
    let request = r#"{"variant":"nv_word_4"}"#;
    let occupant = std::thread::spawn(move || post(addr, "/v1/characterize", request));
    wait_for_misses(1, "the occupying request");
    let slow = r#"{"variant":"standard","analysis":"wer_tail","wer":{"samples":200000}}"#;
    let leader = std::thread::spawn(move || post(addr, "/v1/characterize", slow));
    wait_for_misses(2, "the leader");
    let followers: Vec<_> = (0..3)
        .map(|_| std::thread::spawn(move || post(addr, "/v1/characterize", slow)))
        .collect();

    // --- The cache contract: miss, then byte-identical hit. ---
    let (status, headers, first) = occupant.join().expect("occupying request");
    assert_eq!(status, 200, "{first}");
    assert_eq!(header(&headers, "X-NVFF-Cache"), Some("miss"));
    assert!(
        first.contains("\"schema\":\"nvff-characterize/1\""),
        "{first}"
    );

    let (status, headers, second) = post(addr, "/v1/characterize", request);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-NVFF-Cache"), Some("hit"));
    assert_eq!(first, second, "hit must be byte-identical to the miss");

    // A respelled-but-equivalent request (key order, whitespace, number
    // spelling, explicit defaults, corner case) is the same entry.
    let respelled = r#" {
        "analysis": "full",
        "corner": "tt/TYPICAL",
        "variant": "nv_word_4",
        "overrides": {}
    } "#;
    let (status, headers, third) = post(addr, "/v1/characterize", respelled);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-NVFF-Cache"), Some("hit"), "{third}");
    assert_eq!(first, third, "canonicalization must unify spellings");

    let (status, headers, slow_body) = leader.join().expect("leader");
    assert_eq!(status, 200, "{slow_body}");
    assert_eq!(header(&headers, "X-NVFF-Cache"), Some("miss"));
    for follower in followers {
        let (status, headers, body) = follower.join().expect("follower");
        assert_eq!(status, 200);
        assert_eq!(
            header(&headers, "X-NVFF-Cache"),
            Some("coalesced"),
            "{body}"
        );
        assert_eq!(body, slow_body, "coalesced shares the one result");
    }

    // Exactly one simulation per fingerprint happened — the word and
    // the slow point: misses count computations.
    let (status, _, scrape) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        counter_value(&scrape, "nvff_serve_cache_misses_total"),
        2,
        "each point simulated exactly once: {scrape}"
    );
    assert_eq!(counter_value(&scrape, "nvff_serve_cache_hits_total"), 2);
    assert_eq!(counter_value(&scrape, "nvff_serve_coalesced_total"), 3);

    // --- The worker memo: another analysis kind of a known circuit. ---
    // A new fingerprint, so a miss, but the worker already holds the
    // circuit's metrics: no second characterization, and the solver
    // counters are those of the one run.
    let characterizations = || -> u64 {
        telemetry::snapshot()
            .spans
            .iter()
            .filter(|span| span.path.ends_with("serve.characterize"))
            .map(|span| span.count)
            .sum()
    };
    assert_eq!(characterizations(), 1, "only the word was characterized");
    let (status, headers, read_view) = post(
        addr,
        "/v1/characterize",
        r#"{"variant":"nv_word_4","analysis":"read"}"#,
    );
    assert_eq!(status, 200, "{read_view}");
    assert_eq!(header(&headers, "X-NVFF-Cache"), Some("miss"));
    assert_eq!(characterizations(), 1, "the memo serves the second kind");
    let solver = |body: &str| {
        body.split_once("\"solver\":")
            .expect("solver counters")
            .1
            .to_owned()
    };
    assert_eq!(solver(&read_view), solver(&first));

    // --- HTTP edges. ---
    // Wrong method on a known path: 405 with an Allow header.
    let (status, headers, _) = get(addr, "/v1/characterize");
    assert_eq!(status, 405);
    assert_eq!(header(&headers, "Allow"), Some("POST"));

    // Oversized body: 413 before the body is even read.
    let oversized = format!(
        r#"{{"variant":"standard","overrides":{{"pad":{}}}}}"#,
        "9".repeat(3000)
    );
    let (status, _, body) = post(addr, "/v1/characterize", &oversized);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("2048"), "{body}");

    // Malformed and invalid requests: 400 with a JSON error body.
    let (status, _, body) = post(addr, "/v1/characterize", "{nope");
    assert_eq!(status, 400);
    assert!(body.contains("\"error\""), "{body}");
    let (status, _, body) = post(addr, "/v1/characterize", r#"{"variant":"nv_word_99"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("\"error\""), "{body}");
    // `1e400` parses to +∞: refused as non-finite, not by a later check.
    let overflow = r#"{"variant":"standard","overrides":{"timing.write_pulse_ns":1e400}}"#;
    let (status, _, body) = post(addr, "/v1/characterize", overflow);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("finite"), "{body}");
    // Overrides each in range whose combined timing collides: rejected
    // up front, not a worker panic turned into an uncached 500.
    for colliding in [
        r#"{"variant":"standard","overrides":{"timing.edge_ps":250}}"#,
        r#"{"variant":"nv_word_3","overrides":{"timing.evaluate_ps":5}}"#,
    ] {
        let (status, _, body) = post(addr, "/v1/characterize", colliding);
        assert_eq!(status, 400, "{colliding}: {body}");
        assert!(body.contains("timing leaves no room"), "{body}");
    }

    // --- Graceful drain. ---
    let (status, _, _) = get(addr, "/quitquitquit");
    assert_eq!(status, 200);
    assert!(server.wait_quit(Some(Duration::from_secs(10))), "quit seen");
    // New work is refused while draining…
    let (status, _, body) = post(addr, "/v1/characterize", r#"{"variant":"proposed"}"#);
    assert_eq!(status, 503, "{body}");
    // …but cached results still serve.
    let (status, headers, body) = post(addr, "/v1/characterize", request);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-NVFF-Cache"), Some("hit"));
    assert_eq!(body, first);

    server.shutdown();
    telemetry::init(telemetry::TraceMode::Off);
    telemetry::reset_for_tests();
}
