//! `serve_mix`: loopback `POST /v1/characterize` to an in-process
//! [`serve::MetricsServer`] fronting a one-worker
//! [`serve::CharacterizeService`], driven by two closed-loop clients.
//!
//! The request stream is a pure function of the seed:
//!
//! - the *warm set*: circuits of every variant at two corners under two
//!   analysis kinds, plus `wer_tail` points, posted once in the
//!   warm-up so the cache starts each timed phase holding exactly them;
//! - the *reader* client repeats warm-set fingerprints, one in four
//!   respelled (key order, whitespace, number and corner spelling) so
//!   canonicalization does the work;
//! - the *writer* client posts cold misses: a new circuit per step,
//!   cycling through the variants, each under two analysis kinds (the
//!   second is answered from the worker's pooled harness), a 1e4-sample
//!   `wer_tail` every fourth step, and every eighth step a fresh key it
//!   hands the reader to post at the same time (single-flight
//!   coalescing).
//!
//! Splitting reads and writes between the clients keeps misses from
//! queueing behind each other, so miss latency is compute, not chance
//! queue wait. More than 32 distinct circuits per run cycle the worker's
//! harness pool; the working set stays far below the 4096-entry cache,
//! so eviction is not measured.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use cells::LatchConfig;
use serve::{CharacterizeRequest, CharacterizeService, MetricsServer, ServiceOptions};

use crate::calib;
use crate::harness::{overhead, Metric, Outcome, Tally};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;

/// Circuit variants requested (`nv_word_8`, ~1.1 s per miss, is left
/// out).
pub const VARIANTS: [&str; 4] = ["standard", "proposed", "nv_word_2", "nv_word_4"];
const CORNERS: [&str; 2] = ["TT/typical", "SS/worst"];
/// Service workers: the default on a 2-core machine, pinned.
const WORKERS: usize = 1;
/// Importance-sampled draws of each `wer_tail` request.
const WER_SAMPLES: usize = 10_000;
const WER_SIGMAS: [f64; 2] = [0.04, 0.06];
/// One request in this many is traced in a traced run (tens of
/// thousands of requests a run; a sample keeps the span file small).
const TRACE_EVERY: u64 = 16;

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Request body as sent.
    pub body: String,
    /// Canonical fingerprint (the cache key).
    pub key: u128,
}

impl Req {
    fn new(body: String) -> Self {
        let key = CharacterizeRequest::parse(&body)
            .expect("generated requests are valid")
            .fingerprint();
        Self { body, key }
    }
}

/// Counter-based hash of `(seed, stream, index)`.
fn h(seed: u64, stream: u64, index: u64) -> u64 {
    sweep::point_seed(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15), index)
}

const READER: u64 = 1;
const WRITER: u64 = 2;
const WARM: u64 = 3;

/// Circuit fields of a request: variant, corner, output load.
#[derive(Debug, Clone, Copy)]
struct Circuit {
    variant: &'static str,
    corner: &'static str,
    load_ff: f64,
}

/// Spelling of a circuit request: `0` canonical-looking, `1..=3`
/// respelled.
fn circuit_body(c: Circuit, analysis: &str, spelling: u64) -> String {
    match spelling {
        0 => format!(
            r#"{{"variant":"{}","corner":"{}","analysis":"{analysis}","overrides":{{"sizing.output_load_ff":{}}}}}"#,
            c.variant, c.corner, c.load_ff
        ),
        1 => format!(
            "{{ \"overrides\": {{ \"sizing.output_load_ff\": {:e} }},\n  \"analysis\": \"{analysis}\", \"corner\": \"{}\", \"variant\": \"{}\" }}",
            c.load_ff,
            c.corner.to_ascii_lowercase(),
            c.variant
        ),
        2 => format!(
            r#"{{"analysis":"{analysis}","variant":"{}","overrides":{{"sizing.output_load_ff":{:.6}}},"corner":"{}"}}"#,
            c.variant,
            c.load_ff,
            c.corner.to_ascii_uppercase()
        ),
        _ => format!(
            "{{\"corner\" : \"{}\" ,\"variant\":\"{}\" , \"overrides\":{{\"sizing.output_load_ff\":{}E0}},\"analysis\":\"{analysis}\"}}\n",
            c.corner, c.variant, c.load_ff
        ),
    }
}

fn wer_body(seed: u64, sigma: f64, spelling: u64) -> String {
    if spelling == 0 {
        format!(
            r#"{{"variant":"standard","analysis":"wer_tail","wer":{{"samples":{WER_SAMPLES},"seed":{seed},"sigma_switching_current":{sigma}}}}}"#
        )
    } else {
        format!(
            r#"{{ "wer": {{ "sigma_switching_current": {sigma:e}, "seed": {seed}, "target_wer": 1e-9, "samples": {WER_SAMPLES}.0 }}, "analysis": "wer_tail", "variant": "standard" }}"#
        )
    }
}

/// Output-load grid size; warm-set loads lie in [2, 8) fF and writer
/// loads in [8, 14) fF, so no writer key is ever warm. Every variant
/// still resolves its restore at the SS/worst corner below ~17 fF.
const LOADS: u64 = 6000;

/// Load `x` of the grid starting at `base` fF, in 1e-3 fF steps. The
/// value is the double nearest a 3-decimal number, so every respelling
/// of it parses back to the same key.
fn load(base: f64, x: u64) -> f64 {
    (base * 1000.0 + (x % LOADS) as f64) / 1000.0
}

/// The warm set: every variant at both corners under `full` and
/// `read`, then two `wer_tail` points.
#[must_use]
pub fn warm_set(seed: u64) -> Vec<Req> {
    let mut set = Vec::new();
    for (v, variant) in VARIANTS.iter().enumerate() {
        for (k, corner) in CORNERS.iter().enumerate() {
            let c = Circuit {
                variant,
                corner,
                load_ff: load(2.0, h(seed, WARM, (v * CORNERS.len() + k) as u64)),
            };
            for analysis in ["full", "read"] {
                set.push(Req::new(circuit_body(c, analysis, 0)));
            }
        }
    }
    for (i, sigma) in WER_SIGMAS.iter().enumerate() {
        let wer_seed = h(seed, WARM, 100 + i as u64) % 1_000_000;
        set.push(Req::new(wer_body(wer_seed, *sigma, 0)));
    }
    set
}

/// Reader request `i`: a warm-set fingerprint, respelled one time in
/// four.
#[must_use]
pub fn reader_request(seed: u64, warm: &[Req], i: u64) -> Req {
    let x = h(seed, READER, i);
    let entry = (x % warm.len() as u64) as usize;
    let respell = (x >> 32).is_multiple_of(4);
    if !respell {
        return warm[entry].clone();
    }
    let spelling = 1 + (x >> 40) % 3;
    // Rebuild the entry's fields from its canonical body.
    let parsed = CharacterizeRequest::parse(&warm[entry].body).expect("warm set parses");
    let body = if let Some(wer) = &parsed.wer {
        wer_body(wer.seed, wer.sigma_switching_current, spelling)
    } else {
        let c = Circuit {
            variant: VARIANTS
                .iter()
                .find(|v| **v == parsed.variant.label())
                .expect("warm variants are listed"),
            corner: CORNERS
                .iter()
                .find(|c| **c == parsed.corner.to_string())
                .expect("warm corners are listed"),
            load_ff: parsed.overrides[0].1,
        };
        circuit_body(c, parsed.analysis.label(), spelling)
    };
    let req = Req::new(body);
    debug_assert_eq!(req.key, warm[entry].key);
    req
}

/// Writer step `s`: a new circuit under two analysis kinds, a
/// `wer_tail` every fourth step; the flag marks a step whose first
/// request the reader posts too.
#[must_use]
pub fn writer_step(seed: u64, s: u64) -> (Vec<Req>, bool) {
    const FIRST: [&str; 2] = ["full", "write"];
    const SECOND: [&str; 2] = ["read", "leakage"];
    let x = h(seed, WRITER, s);
    let c = Circuit {
        variant: VARIANTS[(s % VARIANTS.len() as u64) as usize],
        corner: CORNERS[((x >> 8) % 2) as usize],
        // 7 is coprime to the grid size: distinct loads for 6000 steps.
        load_ff: load(
            8.0,
            s.wrapping_mul(7).wrapping_add(h(seed, WRITER, u64::MAX)),
        ),
    };
    let mut reqs = vec![
        Req::new(circuit_body(c, FIRST[(x % 2) as usize], (x >> 16) % 4)),
        Req::new(circuit_body(c, SECOND[((x >> 1) % 2) as usize], 0)),
    ];
    if s % 4 == 3 {
        let sigma = WER_SIGMAS[((x >> 24) % 2) as usize];
        reqs.push(Req::new(wer_body(1_000_000 + s, sigma, 0)));
    }
    (reqs, s % 8 == 5)
}

/// Cache disposition of an answered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    Hit,
    Miss,
    Coalesced,
}

/// One answered request.
struct Response {
    status: u16,
    disposition: Option<Disposition>,
    body: String,
}

/// One raw-socket `POST /v1/characterize`, read to end of stream.
fn post(addr: SocketAddr, body: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let _ = stream.set_nodelay(true);
    let request = format!(
        "POST /v1/characterize HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response {raw:?}"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {head:?}"))?;
    let disposition = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if !name.trim().eq_ignore_ascii_case("x-nvff-cache") {
            return None;
        }
        match value.trim() {
            "hit" => Some(Disposition::Hit),
            "miss" => Some(Disposition::Miss),
            "coalesced" => Some(Disposition::Coalesced),
            _ => None,
        }
    });
    Ok(Response {
        status,
        disposition,
        body: body.to_owned(),
    })
}

/// First response body seen per fingerprint.
type FirstBodies = Mutex<HashMap<u128, String>>;

/// Checks one response: 200, and byte-identical to the first body for
/// its fingerprint. `expect_hit` demands a cache hit (warm-set keys).
fn check(
    response: &Result<Response, String>,
    req: &Req,
    expect_hit: bool,
    first: &FirstBodies,
) -> Result<Disposition, String> {
    let r = response.as_ref().map_err(Clone::clone)?;
    if r.status != 200 {
        return Err(format!("status {}: {}", r.status, r.body.trim()));
    }
    let disposition = r
        .disposition
        .ok_or("200 response without an X-NVFF-Cache disposition")?;
    if expect_hit && disposition != Disposition::Hit {
        return Err(format!("warm key answered {disposition:?}, expected Hit"));
    }
    let mut first = first.lock().expect("no client panics holding the map");
    match first.get(&req.key) {
        Some(body) if *body != r.body => Err(format!(
            "{disposition:?} body for {:032x} differs from the first body",
            req.key
        )),
        Some(_) => Ok(disposition),
        None => {
            first.insert(req.key, r.body.clone());
            Ok(disposition)
        }
    }
}

/// One completed request as a client saw it. Kept to 12 bytes: a run
/// holds ~10^5 of them, and their memory is part of `peak_rss_mb`.
#[derive(Debug, Clone, Copy)]
struct Sample {
    latency_s: f32,
    /// `latency_s` at the reference machine speed.
    norm_s: f32,
    /// Posted by the writer client.
    writer: bool,
    /// `None` for a failed request.
    disposition: Option<Disposition>,
    shed: bool,
    traced: bool,
}

/// Reader requests generated in set-up; the reader cycles through them.
const READ_STREAM: u64 = 4096;
/// Writer steps generated in set-up: more than a run gets through.
const WRITE_STEPS: u64 = 1024;

/// The server, its service and the generated request stream.
pub struct ServeMix {
    seed: u64,
    service: Arc<CharacterizeService>,
    server: MetricsServer,
    warm: Vec<Req>,
    /// The reader's stream, cycled.
    reads: Vec<Req>,
    /// The writer's first steps (later ones are generated on demand).
    writes: Vec<(Vec<Req>, bool)>,
}

impl ServeMix {
    /// Starts the service and server on a loopback port and generates
    /// the request stream (every body parsed once for its key).
    ///
    /// # Panics
    ///
    /// If no loopback port can be bound.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let service = Arc::new(CharacterizeService::new(&ServiceOptions {
            workers: WORKERS,
            ..ServiceOptions::default()
        }));
        let server = MetricsServer::bind_with("127.0.0.1:0", Some(Arc::clone(&service)))
            .expect("bind a loopback port");
        let warm = warm_set(seed);
        let reads = (0..READ_STREAM)
            .map(|i| reader_request(seed, &warm, i))
            .collect();
        Self {
            seed,
            service,
            server,
            reads,
            writes: (0..WRITE_STEPS).map(|s| writer_step(seed, s)).collect(),
            warm,
        }
    }
}

struct ClientCtx<'a> {
    writer: bool,
    addr: SocketAddr,
    first: &'a FirstBodies,
    deadline: Instant,
    trace: bool,
    origin: Instant,
}

impl ClientCtx<'_> {
    /// Posts `req`, timing send to complete response; when tracing,
    /// every [`TRACE_EVERY`]th request is traced. `cal_s` is the client's
    /// latest calibration time.
    fn send(
        &self,
        tr: &mut Tracer,
        n: u64,
        req: &Req,
        expect_hit: bool,
        cal_s: f64,
    ) -> (Sample, Option<String>) {
        let traced = self.trace && n % TRACE_EVERY == TRACE_EVERY - 1;
        let (response, latency_s) = if traced {
            tr.op(n, |tr| {
                tr.span("serve.post", |_| post(self.addr, &req.body))
            })
        } else {
            let t0 = Instant::now();
            let r = post(self.addr, &req.body);
            (r, t0.elapsed().as_secs_f64())
        };
        let shed = matches!(&response, Ok(r) if r.status == 429);
        match check(&response, req, expect_hit, self.first) {
            Ok(d) => (
                Sample {
                    latency_s: latency_s as f32,
                    norm_s: KERNEL.normalize(latency_s, cal_s) as f32,
                    writer: self.writer,
                    disposition: Some(d),
                    shed,
                    traced,
                },
                None,
            ),
            Err(reason) => (
                Sample {
                    latency_s: f32::INFINITY,
                    norm_s: f32::INFINITY,
                    writer: self.writer,
                    disposition: None,
                    shed,
                    traced,
                },
                Some(reason),
            ),
        }
    }
}

/// A client's calibration runs, one every [`CAL_PERIOD`].
struct Calibration {
    samples: Vec<f64>,
    next: Instant,
}

impl Calibration {
    fn start() -> Self {
        Self {
            samples: vec![KERNEL.sample()],
            next: Instant::now() + CAL_PERIOD,
        }
    }

    /// The latest calibration time, re-measured when one is due.
    fn current(&mut self) -> f64 {
        if Instant::now() >= self.next {
            self.samples.push(KERNEL.sample());
            self.next = Instant::now() + CAL_PERIOD;
        }
        self.samples[self.samples.len() - 1]
    }
}

/// Calibration job of this workload.
const KERNEL: calib::Kernel = calib::Kernel::Dense;

/// How often each client re-runs the calibration kernel (~2 ms).
const CAL_PERIOD: Duration = Duration::from_millis(50);

/// Samples reserved per client up front: only touched pages count toward
/// resident memory, so reserving (rather than doubling) keeps
/// `peak_rss_mb` from jumping with the request count.
const SAMPLE_CAPACITY: usize = 1 << 21;

struct ClientRun {
    samples: Vec<Sample>,
    reasons: Vec<String>,
    tracer: Tracer,
    cal_s: Vec<f64>,
}

fn reader(ctx: &ClientCtx, reads: &[Req], inbox: &mpsc::Receiver<Req>) -> ClientRun {
    let mut tr = Tracer::new(ctx.origin);
    let mut cal = Calibration::start();
    let (mut samples, mut reasons) = (Vec::with_capacity(SAMPLE_CAPACITY), Vec::new());
    let mut i = 0;
    while Instant::now() < ctx.deadline {
        let (req, expect_hit) = match inbox.try_recv() {
            Ok(fresh) => (fresh, false),
            Err(_) => (reads[i as usize % reads.len()].clone(), true),
        };
        let (sample, reason) = ctx.send(&mut tr, i, &req, expect_hit, cal.current());
        samples.push(sample);
        reasons.extend(reason.filter(|_| reasons.len() < 5));
        i += 1;
    }
    ClientRun {
        samples,
        reasons,
        tracer: tr,
        cal_s: cal.samples,
    }
}

fn writer(
    ctx: &ClientCtx,
    seed: u64,
    writes: &[(Vec<Req>, bool)],
    outbox: &mpsc::Sender<Req>,
) -> ClientRun {
    let mut tr = Tracer::new(ctx.origin);
    let mut cal = Calibration::start();
    let (mut samples, mut reasons) = (Vec::with_capacity(SAMPLE_CAPACITY), Vec::new());
    let mut n = 0;
    let mut step = 0;
    while Instant::now() < ctx.deadline {
        let (reqs, shared) = writes
            .get(step as usize)
            .cloned()
            .unwrap_or_else(|| writer_step(seed, step));
        for (k, req) in reqs.iter().enumerate() {
            if shared && k == 0 {
                let _ = outbox.send(req.clone());
            }
            let (sample, reason) = ctx.send(&mut tr, (1 << 40) + n, req, false, cal.current());
            samples.push(sample);
            reasons.extend(reason.filter(|_| reasons.len() < 5));
            n += 1;
        }
        step += 1;
    }
    ClientRun {
        samples,
        reasons,
        tracer: tr,
        cal_s: cal.samples,
    }
}

/// Everything the two clients saw in the timed phase.
struct Phase {
    samples: Vec<Sample>,
    reasons: Vec<String>,
    tracer: Tracer,
    cal_s: Vec<f64>,
    wall_s: f64,
}

fn drive(mix: &ServeMix, first: &FirstBodies, seconds: f64, trace: bool) -> Phase {
    let origin = Instant::now();
    let barrier = Barrier::new(2);
    let (outbox, inbox) = mpsc::channel();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let ctx = |writer| ClientCtx {
        writer,
        addr: mix.server.local_addr(),
        first,
        deadline,
        trace,
        origin,
    };
    let (r, w) = std::thread::scope(|scope| {
        let reader_ctx = ctx(false);
        let writer_ctx = ctx(true);
        let barrier = &barrier;
        let (reads, writes, seed) = (&mix.reads, &mix.writes, mix.seed);
        let r = scope.spawn(move || {
            barrier.wait();
            reader(&reader_ctx, reads, &inbox)
        });
        let w = scope.spawn(move || {
            barrier.wait();
            writer(&writer_ctx, seed, writes, &outbox)
        });
        (
            r.join().expect("reader client panicked"),
            w.join().expect("writer client panicked"),
        )
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (mut samples, mut reasons, mut tracer, mut cal_s) =
        (r.samples, r.reasons, r.tracer, r.cal_s);
    samples.extend(w.samples);
    reasons.extend(w.reasons);
    tracer.absorb(w.tracer);
    cal_s.extend(w.cal_s);
    Phase {
        samples,
        reasons,
        tracer,
        cal_s,
        wall_s,
    }
}

/// Normalized latencies of the samples `keep` selects.
fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| f64::from(s.norm_s))
        .collect()
}

/// Requests answered per second of normalized request time, summed over
/// the two clients: each client's completed requests over the sum of
/// their normalized latencies (as the sequential workloads count ops
/// over normalized op time).
fn throughput(samples: &[Sample]) -> f64 {
    [false, true]
        .iter()
        .map(|&writer| {
            let ok = latencies(samples, |s| s.writer == writer && s.disposition.is_some());
            ok.len() as f64 / ok.iter().sum::<f64>()
        })
        .sum()
}

fn count(samples: &[Sample], d: Disposition) -> f64 {
    samples.iter().filter(|s| s.disposition == Some(d)).count() as f64
}

/// In-process probes of the serve layer (and the cells and spice layers
/// behind a miss), run after the timed phase.
fn probes(mix: &ServeMix, tr: &mut Tracer) -> Vec<Metric> {
    const ROUNDS: u64 = 3;
    let addr = mix.server.local_addr();
    let mut solver = spice::SolverStats::default();
    let mut probe = spice::SolverStats::default();
    for round in 0..ROUNDS {
        for i in 0..64 {
            let req = reader_request(mix.seed, &mix.warm, round * 64 + i);
            let parsed = tr.span("serve.parse", |_| CharacterizeRequest::parse(&req.body));
            let parsed = parsed.expect("generated requests parse");
            tr.span("serve.canonical", |_| parsed.fingerprint());
        }
        for req in &mix.warm {
            tr.span("serve.handle_hit", |_| mix.service.handle(&req.body));
            let _ = tr.span("serve.http_hit", |_| post(addr, &req.body));
        }
        for (v, variant) in VARIANTS.iter().enumerate() {
            // A key no client posts: a probe-only output load.
            let c = Circuit {
                variant,
                corner: CORNERS[0],
                load_ff: 14.0 + (round * 4 + v as u64) as f64 * 0.125,
            };
            let body = circuit_body(c, "full", 0);
            let response = tr.span("serve.handle_miss", |_| mix.service.handle(&body));
            assert_eq!(response.status, 200, "probe miss: {}", response.body);
            let config = LatchConfig::default();
            let word = cells::CellVariant::parse(variant)
                .expect("listed variants parse")
                .instantiate(config);
            let metrics = tr.span(WORD_SPANS[v], |_| word.characterize());
            let metrics = metrics.expect("default-config words characterize");
            if round == 0 {
                solver += metrics.solver;
            }
        }
        probe = crate::table2::spice_probe(tr);
    }
    let mut m = crate::table2::spice_metrics(tr, probe, solver);
    let med = |name: &str| median(&tr.durations(name));
    for (name, span) in [
        ("serve.parse_s", "serve.parse"),
        ("serve.canonical_s", "serve.canonical"),
        ("serve.handle_hit_s", "serve.handle_hit"),
        ("serve.handle_miss_s", "serve.handle_miss"),
    ] {
        m.push(Metric::new(name, med(span), "s"));
    }
    m.push(Metric::new(
        "serve.http_overhead_s",
        med("serve.http_hit") - med("serve.handle_hit"),
        "s",
    ));
    for (v, span) in WORD_SPANS.iter().enumerate() {
        m.push(Metric::new(
            &format!("cells.word_characterize_{}_s", VARIANTS[v]),
            med(span),
            "s",
        ));
    }
    m
}

/// Span names of the per-variant word characterizations.
const WORD_SPANS: [&str; 4] = [
    "cells.word_characterize_standard",
    "cells.word_characterize_proposed",
    "cells.word_characterize_nv_word_2",
    "cells.word_characterize_nv_word_4",
];

/// Runs the workload: set-up (repeated for `setup_s`), the warm-up that
/// loads the warm set, then the timed two-client phase.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (mix, setup) = crate::setup(KERNEL, || ServeMix::new(seed));
    let first = FirstBodies::default();
    let mut tally = Tally::default();
    let addr = mix.server.local_addr();
    for req in &mix.warm {
        let response = post(addr, &req.body);
        let result = check(&response, req, false, &first).map(|_| ());
        tally.record(result);
    }

    let phase = drive(&mix, &first, seconds, trace);
    for s in &phase.samples {
        tally.attempted += 1;
        tally.failed += u64::from(s.disposition.is_none());
    }
    tally.reasons.extend(phase.reasons.iter().take(5).cloned());
    let samples = &phase.samples;
    let all = latencies(samples, |_| true);
    let ok = samples.iter().filter(|s| s.disposition.is_some()).count() as f64;
    let hits = latencies(samples, |s| s.disposition == Some(Disposition::Hit));
    let misses = latencies(samples, |s| {
        matches!(
            s.disposition,
            Some(Disposition::Miss | Disposition::Coalesced)
        )
    });
    let raw: Vec<f64> = samples.iter().map(|s| f64::from(s.latency_s)).collect();
    let cal_p50_s = median(&phase.cal_s);
    let mut detail = vec![
        Metric::new("raw_setup_s", setup.raw_s, "s"),
        Metric::new("raw_req_p50_s", median(&raw), "s"),
        Metric::new("raw_ops_per_s", ok / phase.wall_s, "1/s"),
        Metric::new("cal_p50_s", cal_p50_s, "s"),
        Metric::new("req_p50_s", median(&all), "s"),
        Metric::new("req_p99_s", percentile(&all, 99), "s"),
        Metric::new("hit_p50_s", median(&hits), "s"),
        Metric::new("miss_p50_s", median(&misses), "s"),
        Metric::new("requests", all.len() as f64, "count"),
        Metric::new("hits", count(samples, Disposition::Hit), "count"),
        Metric::new("misses", count(samples, Disposition::Miss), "count"),
        Metric::new("coalesced", count(samples, Disposition::Coalesced), "count"),
        Metric::new(
            "shed",
            samples.iter().filter(|s| s.shed).count() as f64,
            "count",
        ),
    ];
    match tail_percentile(&all) {
        Some((p, v)) if p != 99 => detail.push(Metric::new(&format!("req_p{p}_s"), v, "s")),
        _ => {}
    }

    let mut tracer = phase.tracer;
    let metrics = if trace {
        let mut m = probes(&mix, &mut tracer);
        let traced: Vec<f64> = samples
            .iter()
            .filter(|s| s.traced)
            .map(|s| f64::from(s.latency_s))
            .collect();
        let plain: Vec<f64> = samples
            .iter()
            .filter(|s| !s.traced)
            .map(|s| f64::from(s.latency_s))
            .collect();
        m.push(overhead(&traced, &plain));
        m.push(Metric::new(
            "telemetry.coverage_frac",
            median(&tracer.coverage()),
            "frac",
        ));
        for name in ["hits", "misses", "coalesced", "shed"] {
            let d = detail
                .iter()
                .find(|d| d.name == name)
                .expect("listed above");
            m.push(Metric::new(&format!("serve.{name}"), d.value, "count"));
        }
        m
    } else {
        vec![
            Metric::new("setup_s", setup.norm_s, "s"),
            Metric::new("ops_per_s", throughput(samples), "1/s"),
            Metric::new("op_p50_s", median(&all), "s"),
        ]
    };
    Outcome {
        tally,
        metrics,
        detail,
        tracer: trace.then_some(tracer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_stream_is_a_function_of_the_seed() {
        let stream = |seed| {
            let warm = warm_set(seed);
            let reads: Vec<Req> = (0..200).map(|i| reader_request(seed, &warm, i)).collect();
            let writes: Vec<(Vec<Req>, bool)> = (0..40).map(|s| writer_step(seed, s)).collect();
            (warm, reads, writes)
        };
        assert_eq!(stream(7), stream(7));
        let (warm7, reads7, writes7) = stream(7);
        let (warm8, reads8, writes8) = stream(8);
        assert_ne!(warm7, warm8);
        assert_ne!(reads7, reads8);
        assert_ne!(writes7, writes8);

        // Respelled reads keep their warm-set fingerprint.
        let keys: Vec<u128> = warm7.iter().map(|r| r.key).collect();
        assert!(reads7.iter().all(|r| keys.contains(&r.key)));
        let respelled = reads7
            .iter()
            .filter(|r| !warm7.iter().any(|w| w.body == r.body))
            .count();
        assert!(
            (25..=75).contains(&respelled),
            "{respelled} of 200 respelled"
        );

        // Writer keys are cold: distinct from each other and the warm set.
        let mut cold: Vec<u128> = writes7
            .iter()
            .flat_map(|(r, _)| r.iter().map(|r| r.key))
            .collect();
        let n = cold.len();
        cold.sort_unstable();
        cold.dedup();
        assert_eq!(cold.len(), n);
        assert!(cold.iter().all(|k| !keys.contains(k)));
        assert_eq!(writes7.iter().filter(|(_, shared)| *shared).count(), 5);
    }

    #[test]
    fn the_response_check_fires_on_status_body_and_disposition() {
        let first = FirstBodies::default();
        let req = Req::new(r#"{"variant":"standard"}"#.to_owned());
        let ok = |disposition, body: &str| {
            Ok(Response {
                status: 200,
                disposition: Some(disposition),
                body: body.to_owned(),
            })
        };
        assert_eq!(
            check(&ok(Disposition::Miss, "a"), &req, false, &first),
            Ok(Disposition::Miss)
        );
        assert_eq!(
            check(&ok(Disposition::Hit, "a"), &req, true, &first),
            Ok(Disposition::Hit)
        );
        assert!(check(&ok(Disposition::Hit, "b"), &req, true, &first)
            .expect_err("corrupted body")
            .contains("differs"));
        assert!(check(&ok(Disposition::Miss, "a"), &req, true, &first)
            .expect_err("warm key missed")
            .contains("expected Hit"));
        let shed = Ok(Response {
            status: 429,
            disposition: None,
            body: "{}".to_owned(),
        });
        assert!(check(&shed, &req, false, &first).is_err());
        assert!(check(&Err("connect: refused".to_owned()), &req, false, &first).is_err());
    }
}
