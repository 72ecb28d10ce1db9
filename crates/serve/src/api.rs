//! The `POST /v1/characterize` request API.
//!
//! A request is JSON (parsed with `telemetry`'s hand-rolled parser —
//! still zero dependencies) naming a cell variant, a corner, an
//! analysis kind, and numeric parameter overrides:
//!
//! ```json
//! {
//!   "variant": "proposed",
//!   "corner": "SS/worst",
//!   "analysis": "full",
//!   "overrides": { "timing.write_pulse_ns": 3.0 }
//! }
//! ```
//!
//! `corner` defaults to `TT/typical`, `analysis` to `full`, and
//! `overrides` to empty; unknown fields and unknown override keys are
//! 400s, because anything tolerated-but-ignored would alias distinct
//! cache keys onto one entry.
//!
//! The `wer_tail` analysis runs the importance-sampled rare-event
//! engine ([`mtj::rare`]) on the paper's MTJ compact model instead of
//! the circuit simulator; its knobs ride in an optional `"wer"` object
//! (`target_wer`, `samples`, `seed`, `sigma_switching_current`) that is
//! *only* legal — and only canonicalized — for that analysis kind, so
//! the cache keys of every pre-existing analysis are unchanged.
//!
//! **Canonicalization.** The cache key is not a hash of the request
//! bytes — it is [`sweep::fingerprint128`] over the *canonical
//! serialization* of the parsed request: fixed top-level key order,
//! overrides sorted by key, defaults materialized, every number
//! rendered through one `f64` formatter. Key-order permutations,
//! whitespace, `5` vs `5.0` vs `5e0`, and an omitted-vs-explicit
//! default all produce identical canonical bytes, while any parameter
//! perturbation changes them. The canonical bytes are also exactly what
//! the executor computes from, making a response a pure function of its
//! fingerprint.
//!
//! **Responses** are rendered once, cached as rendered bytes, and
//! therefore byte-identical across hits. Cache status travels in the
//! `X-NVFF-Cache` response header (`hit` / `miss` / `coalesced`), never
//! in the body, so it cannot break byte-identity.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;

use cells::{CellMetrics, CellVariant, Corner, LatchConfig, NvWord};
use telemetry::JsonValue;

use crate::cache::{ResultCache, DEFAULT_CAPACITY};
use crate::http::DEFAULT_MAX_BODY_BYTES;
use crate::queue::{Executor, Job, JobQueue, SubmitOutcome};

/// Schema tag of response bodies.
pub(crate) const RESPONSE_SCHEMA: &str = "nvff-characterize/1";

/// Which subset of the Table-II analyses a request asks for. All kinds
/// run the same characterization (the store/restore/leakage phases are
/// one sequenced simulation); the kind selects which metrics the
/// response carries, and distinct kinds are distinct cache entries over
/// the same pooled circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisKind {
    /// Everything: read, write, and leakage metrics.
    Full,
    /// Restore-path metrics: read energy and delay.
    Read,
    /// Store-path metrics: write energy and latency.
    Write,
    /// Static power of the idle cell.
    Leakage,
    /// Importance-sampled write-error-rate tail of the storage MTJ
    /// (no circuit simulation; see the `"wer"` request object).
    WerTail,
}

impl AnalysisKind {
    /// Parses `full | read | write | leakage | wer_tail`.
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "full" => Ok(Self::Full),
            "read" => Ok(Self::Read),
            "write" => Ok(Self::Write),
            "leakage" => Ok(Self::Leakage),
            "wer_tail" => Ok(Self::WerTail),
            _ => Err(format!(
                "unknown analysis {name:?}: expected full, read, write, leakage or wer_tail"
            )),
        }
    }

    /// The canonical spelling.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::Read => "read",
            Self::Write => "write",
            Self::Leakage => "leakage",
            Self::WerTail => "wer_tail",
        }
    }
}

/// Knobs of a `wer_tail` analysis, parsed from the `"wer"` object.
/// Defaults are materialized at parse time, so an omitted knob and its
/// explicit default share one cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct WerTailRequest {
    /// Typical-die WER target defining the pulse width (through the
    /// closed-form `pulse_for_wer` on the reference device).
    pub(crate) target_wer: f64,
    /// Importance-sampled draws.
    pub(crate) samples: usize,
    /// Campaign base seed.
    pub seed: u64,
    /// σ fraction of the switching current (σ(RA)/σ(TMR) stay at the
    /// variation model's defaults).
    pub sigma_switching_current: f64,
}

/// Most IS draws one request may ask for: keeps a single request's
/// compute comparable to one circuit characterization.
const MAX_WER_SAMPLES: usize = 200_000;

impl Default for WerTailRequest {
    fn default() -> Self {
        Self {
            target_wer: 1e-9,
            samples: 4000,
            seed: 0,
            sigma_switching_current: mtj::VariationModel::default().sigma_switching_current(),
        }
    }
}

impl WerTailRequest {
    fn parse(value: &JsonValue) -> Result<Self, String> {
        let JsonValue::Object(entries) = value else {
            return Err("field \"wer\" must be an object".into());
        };
        let mut wer = Self::default();
        for (key, value) in entries {
            let number = value
                .as_f64()
                .ok_or_else(|| format!("wer option {key:?} must be a number"))?;
            match key.as_str() {
                "target_wer" => wer.target_wer = number,
                "samples" => {
                    if number < 1.0 || number.fract() != 0.0 {
                        return Err("wer option \"samples\" must be a positive integer".into());
                    }
                    wer.samples = number as usize;
                }
                "seed" => {
                    if number < 0.0 || number.fract() != 0.0 {
                        return Err("wer option \"seed\" must be a non-negative integer".into());
                    }
                    wer.seed = number as u64;
                }
                "sigma_switching_current" => wer.sigma_switching_current = number,
                _ => {
                    return Err(format!(
                        "unknown wer option {key:?}: expected target_wer, samples, seed, \
                         sigma_switching_current"
                    ));
                }
            }
        }
        if !(wer.target_wer > 0.0 && wer.target_wer < 1.0) {
            return Err("wer option \"target_wer\" must be in (0, 1)".into());
        }
        if wer.samples > MAX_WER_SAMPLES {
            return Err(format!(
                "wer option \"samples\" exceeds the {MAX_WER_SAMPLES} cap"
            ));
        }
        // The σ bound is the variation model's own; validate now so a
        // bad request 400s instead of panicking a worker.
        mtj::VariationModel::new(
            mtj::VariationModel::default().sigma_ra(),
            mtj::VariationModel::default().sigma_tmr(),
            wer.sigma_switching_current,
        )
        .map_err(|e| e.to_string())?;
        Ok(wer)
    }

    fn canonical_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("samples".into(), JsonValue::Int(self.samples as i64)),
            ("seed".into(), JsonValue::Int(self.seed as i64)),
            (
                "sigma_switching_current".into(),
                JsonValue::Float(self.sigma_switching_current),
            ),
            ("target_wer".into(), JsonValue::Float(self.target_wer)),
        ])
    }
}

/// A parsed, validated characterization request.
#[derive(Debug, Clone)]
pub struct CharacterizeRequest {
    /// The cell variant to characterize.
    pub variant: CellVariant,
    /// Combined process corner (default `TT/typical`).
    pub corner: Corner,
    /// Metric subset requested (default `full`).
    pub analysis: AnalysisKind,
    /// Whitelisted parameter overrides, sorted by key.
    pub overrides: Vec<(String, f64)>,
    /// Rare-event knobs; `Some` exactly when `analysis` is
    /// `AnalysisKind::WerTail` (defaults materialized).
    pub wer: Option<WerTailRequest>,
}

impl CharacterizeRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A human-readable message destined for a 400 response body:
    /// malformed JSON, missing/unknown fields, unknown variant or
    /// corner or override keys, values out of range.
    pub fn parse(body: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(body).map_err(|e| format!("malformed JSON: {e}"))?;
        let JsonValue::Object(fields) = &doc else {
            return Err("request must be a JSON object".into());
        };
        for (key, _) in fields {
            if !matches!(
                key.as_str(),
                "variant" | "corner" | "analysis" | "overrides" | "wer"
            ) {
                return Err(format!(
                    "unknown field {key:?}: expected variant, corner, analysis, overrides, wer"
                ));
            }
        }
        let variant_name = doc
            .get("variant")
            .and_then(JsonValue::as_str)
            .ok_or("missing required string field \"variant\"")?;
        let variant = CellVariant::parse(variant_name).map_err(|e| e.to_string())?;
        let corner = match doc.get("corner") {
            None => Corner::typical(),
            Some(value) => {
                let label = value.as_str().ok_or("field \"corner\" must be a string")?;
                cells::parse_corner(label).map_err(|e| e.to_string())?
            }
        };
        let analysis = match doc.get("analysis") {
            None => AnalysisKind::Full,
            Some(value) => {
                let label = value
                    .as_str()
                    .ok_or("field \"analysis\" must be a string")?;
                AnalysisKind::parse(label)?
            }
        };
        let mut overrides: Vec<(String, f64)> = Vec::new();
        if let Some(value) = doc.get("overrides") {
            let JsonValue::Object(entries) = value else {
                return Err("field \"overrides\" must be an object".into());
            };
            for (key, value) in entries {
                let number = value
                    .as_f64()
                    .ok_or_else(|| format!("override {key:?} must be a number"))?;
                if overrides.iter().any(|(k, _)| k == key) {
                    return Err(format!("duplicate override key {key:?}"));
                }
                overrides.push((key.clone(), number));
            }
        }
        overrides.sort_by(|(a, _), (b, _)| a.cmp(b));
        // Validate keys and values now (cheap — no simulation), so a
        // bad request 400s instead of becoming a queued 500.
        cells::resolve_config(corner, &overrides).map_err(|e| e.to_string())?;
        let wer = match (analysis, doc.get("wer")) {
            (AnalysisKind::WerTail, Some(value)) => Some(WerTailRequest::parse(value)?),
            (AnalysisKind::WerTail, None) => Some(WerTailRequest::default()),
            (_, Some(_)) => {
                return Err("field \"wer\" is only valid with analysis \"wer_tail\"".into());
            }
            (_, None) => None,
        };
        Ok(Self {
            variant,
            corner,
            analysis,
            overrides,
            wer,
        })
    }

    fn overrides_value(&self) -> JsonValue {
        JsonValue::Object(
            self.overrides
                .iter()
                .map(|(key, value)| (key.clone(), JsonValue::Float(*value)))
                .collect(),
        )
    }

    /// The canonical serialization the cache key is taken over: fixed
    /// key order, sorted overrides, defaults materialized, numbers
    /// normalized through the one shared `f64` formatter.
    #[must_use]
    pub(crate) fn canonical(&self) -> String {
        let mut fields = vec![
            (
                "analysis".to_owned(),
                JsonValue::Str(self.analysis.label().into()),
            ),
            ("corner".to_owned(), JsonValue::Str(self.corner.to_string())),
            ("overrides".to_owned(), self.overrides_value()),
            ("variant".to_owned(), JsonValue::Str(self.variant.label())),
        ];
        // Only a wer_tail request carries the "wer" field, so the
        // canonical bytes — and the cache keys — of every other
        // analysis kind are exactly what they were before the field
        // existed.
        if let Some(wer) = &self.wer {
            fields.insert(3, ("wer".to_owned(), wer.canonical_value()));
        }
        JsonValue::object(fields).to_json()
    }

    /// Content fingerprint of the full request — the cache key.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        sweep::fingerprint128(self.canonical().as_bytes())
    }

    /// Fingerprint of the circuit identity alone (request minus
    /// analysis kind): requests differing only in `analysis` share one
    /// pooled harness and batch together.
    #[must_use]
    pub(crate) fn circuit_fingerprint(&self) -> u128 {
        let canonical = JsonValue::object(vec![
            ("corner".into(), JsonValue::Str(self.corner.to_string())),
            ("overrides".into(), self.overrides_value()),
            ("variant".into(), JsonValue::Str(self.variant.label())),
        ])
        .to_json();
        sweep::fingerprint128(canonical.as_bytes())
    }

    /// The simulation configuration this request resolves to.
    ///
    /// # Errors
    ///
    /// Propagates override validation errors (pre-checked in
    /// [`parse`](Self::parse), so this only fails on hand-built
    /// requests).
    pub(crate) fn resolve_config(&self) -> Result<LatchConfig, String> {
        cells::resolve_config(self.corner, &self.overrides).map_err(|e| e.to_string())
    }
}

/// Renders the cached response body for a request whose metrics are
/// known. Field order is fixed and every float goes through the shared
/// formatter, so rendering is deterministic — the byte-identity the
/// cache contract promises.
#[must_use]
pub(crate) fn render_response(request: &CharacterizeRequest, metrics: &CellMetrics) -> String {
    let mut metric_fields: Vec<(String, JsonValue)> = Vec::new();
    let kind = request.analysis;
    if matches!(kind, AnalysisKind::Full | AnalysisKind::Read) {
        metric_fields.push((
            "read_energy_fj".into(),
            JsonValue::Float(metrics.read_energy.femto_joules()),
        ));
        metric_fields.push((
            "read_delay_ps".into(),
            JsonValue::Float(metrics.read_delay.pico_seconds()),
        ));
    }
    if matches!(kind, AnalysisKind::Full | AnalysisKind::Write) {
        metric_fields.push((
            "write_energy_fj".into(),
            JsonValue::Float(metrics.write_energy.femto_joules()),
        ));
        metric_fields.push((
            "write_latency_ns".into(),
            JsonValue::Float(metrics.write_latency.nano_seconds()),
        ));
    }
    if matches!(kind, AnalysisKind::Full | AnalysisKind::Leakage) {
        metric_fields.push((
            "leakage_nw".into(),
            JsonValue::Float(metrics.leakage.nano_watts()),
        ));
    }
    let solver = JsonValue::object(vec![
        (
            "newton_iterations".into(),
            JsonValue::Int(metrics.solver.newton_iterations as i64),
        ),
        (
            "lu_factorizations".into(),
            JsonValue::Int(metrics.solver.lu_factorizations as i64),
        ),
        (
            "accepted_steps".into(),
            JsonValue::Int(metrics.solver.accepted_steps as i64),
        ),
        (
            "rejected_steps".into(),
            JsonValue::Int(metrics.solver.rejected_steps as i64),
        ),
    ]);
    let mut body = JsonValue::object(vec![
        ("schema".into(), JsonValue::Str(RESPONSE_SCHEMA.into())),
        (
            "fingerprint".into(),
            JsonValue::Str(format!("{:032x}", request.fingerprint())),
        ),
        ("variant".into(), JsonValue::Str(request.variant.label())),
        ("corner".into(), JsonValue::Str(request.corner.to_string())),
        (
            "analysis".into(),
            JsonValue::Str(request.analysis.label().into()),
        ),
        (
            "bits".into(),
            JsonValue::Int(request.variant.word_params().bits as i64),
        ),
        (
            "read_transistors".into(),
            JsonValue::Int(metrics.read_transistors as i64),
        ),
        ("metrics".into(), JsonValue::Object(metric_fields)),
        ("solver".into(), solver),
    ])
    .to_json();
    body.push('\n');
    body
}

/// Renders the response body of a `wer_tail` analysis. Same
/// determinism contract as [`render_response`]: fixed field order, the
/// shared float formatter, a trailing newline.
#[must_use]
pub(crate) fn render_wer_tail_response(
    request: &CharacterizeRequest,
    wer: &WerTailRequest,
    result: &mtj::rare::TailPointResult,
) -> String {
    let e = &result.estimate;
    let tail = JsonValue::object(vec![
        (
            "pulse_ns".into(),
            JsonValue::Float(result.pulse.nano_seconds()),
        ),
        ("target_wer".into(), JsonValue::Float(wer.target_wer)),
        (
            "sigma_switching_current".into(),
            JsonValue::Float(wer.sigma_switching_current),
        ),
        ("samples".into(), JsonValue::Int(e.samples as i64)),
        ("seed".into(), JsonValue::Int(wer.seed as i64)),
        ("wer".into(), JsonValue::Float(e.wer)),
        (
            "self_normalized_wer".into(),
            JsonValue::Float(e.self_normalized),
        ),
        ("std_error".into(), JsonValue::Float(e.std_error)),
        ("ci_lo".into(), JsonValue::Float(e.ci.lo)),
        ("ci_hi".into(), JsonValue::Float(e.ci.hi)),
        ("confidence".into(), JsonValue::Float(e.ci.confidence)),
        (
            "contribution_ess".into(),
            JsonValue::Float(e.contribution_ess),
        ),
        ("weight_ess".into(), JsonValue::Float(e.weight_ess)),
        ("mean_weight".into(), JsonValue::Float(e.mean_weight)),
        (
            "bf_equivalent_trials".into(),
            JsonValue::Float(e.brute_force_equivalent_trials()),
        ),
        (
            "tilt".into(),
            JsonValue::Array(
                result
                    .tilt
                    .mu
                    .iter()
                    .map(|&m| JsonValue::Float(m))
                    .collect(),
            ),
        ),
    ]);
    let mut body = JsonValue::object(vec![
        ("schema".into(), JsonValue::Str(RESPONSE_SCHEMA.into())),
        (
            "fingerprint".into(),
            JsonValue::Str(format!("{:032x}", request.fingerprint())),
        ),
        ("variant".into(), JsonValue::Str(request.variant.label())),
        ("corner".into(), JsonValue::Str(request.corner.to_string())),
        (
            "analysis".into(),
            JsonValue::Str(request.analysis.label().into()),
        ),
        ("wer_tail".into(), tail),
    ])
    .to_json();
    body.push('\n');
    body
}

/// Renders a `{"error": …}` body.
#[must_use]
pub(crate) fn render_error(message: &str) -> String {
    let mut body =
        JsonValue::object(vec![("error".into(), JsonValue::Str(message.into()))]).to_json();
    body.push('\n');
    body
}

/// Sizing knobs of a [`CharacterizeService`].
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Worker threads running simulations.
    pub workers: usize,
    /// Most jobs allowed to wait; beyond it submissions shed as 429.
    pub queue_capacity: usize,
    /// In-memory cache entries across all shards.
    pub cache_capacity: usize,
    /// Optional on-disk cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Request-body cap enforced by the HTTP layer (413 beyond it).
    pub max_body_bytes: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        Self {
            // Simulations are CPU-bound; leave headroom for the accept
            // loop and scrapers.
            workers: sweep::available_parallelism().saturating_sub(1).clamp(1, 4),
            queue_capacity: 64,
            cache_capacity: DEFAULT_CAPACITY,
            cache_dir: None,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
        }
    }
}

impl ServiceOptions {
    /// Defaults overridden from the environment: `NVFF_CACHE_DIR` (disk
    /// cache location), `NVFF_SERVE_WORKERS`, `NVFF_SERVE_QUEUE`,
    /// `NVFF_SERVE_MAX_BODY`. Unparseable values fall back silently —
    /// a service must come up even under a mangled environment.
    #[must_use]
    pub fn from_env() -> Self {
        let mut opts = Self::default();
        if let Ok(dir) = std::env::var("NVFF_CACHE_DIR") {
            if !dir.is_empty() {
                opts.cache_dir = Some(PathBuf::from(dir));
            }
        }
        let parse =
            |name: &str| -> Option<usize> { std::env::var(name).ok().and_then(|v| v.parse().ok()) };
        if let Some(workers) = parse("NVFF_SERVE_WORKERS") {
            opts.workers = workers.max(1);
        }
        if let Some(capacity) = parse("NVFF_SERVE_QUEUE") {
            opts.queue_capacity = capacity.max(1);
        }
        if let Some(max_body) = parse("NVFF_SERVE_MAX_BODY") {
            opts.max_body_bytes = max_body.max(1);
        }
        opts
    }
}

/// The outcome of handling one API request, ready for the HTTP layer.
#[derive(Debug)]
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// Value of the `X-NVFF-Cache` header (`hit`/`miss`/`coalesced`),
    /// when the request reached the cache at all.
    pub(crate) cache_status: Option<&'static str>,
    /// `Retry-After` seconds on a 429/503.
    pub(crate) retry_after_s: Option<u64>,
    /// Response body (shared with the cache on hits).
    pub body: Arc<String>,
}

impl ApiResponse {
    fn ok(cache_status: &'static str, body: Arc<String>) -> Self {
        Self {
            status: 200,
            cache_status: Some(cache_status),
            retry_after_s: None,
            body,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        Self {
            status,
            cache_status: None,
            retry_after_s: None,
            body: Arc::new(render_error(message)),
        }
    }
}

/// Most circuits one worker keeps warm before recycling its pool.
const MAX_POOLED_CIRCUITS: usize = 32;

/// The characterization service: content-addressed cache in front of a
/// single-flight batching queue in front of pooled simulation
/// harnesses.
pub struct CharacterizeService {
    cache: Arc<ResultCache>,
    queue: JobQueue,
    max_body_bytes: usize,
}

/// One worker-resident circuit: the harness plus its memoized metrics
/// (computed at most once per worker, shared across analysis kinds).
struct PooledCircuit {
    word: NvWord,
    metrics: Option<CellMetrics>,
}

thread_local! {
    /// Per-worker harness pool, keyed by circuit fingerprint. Worker
    /// threads are dedicated to the queue, so thread-locals give each
    /// worker a private pool with zero synchronization — the same
    /// ownership shape as `sweep`'s `make_state` hook.
    static CIRCUITS: RefCell<sweep::LazyPool<u128, PooledCircuit>> =
        RefCell::new(sweep::LazyPool::new());
}

/// Executes one job: resolve the canonical request, reuse or build the
/// worker's harness for its circuit, characterize once, render.
fn execute(job: &Job) -> Result<String, String> {
    let request = CharacterizeRequest::parse(&job.canonical)
        .map_err(|e| format!("internal: canonical request failed to re-parse: {e}"))?;
    if let Some(wer) = &request.wer {
        // The rare-event arm runs on the MTJ compact model — no pooled
        // circuit, no characterization.
        let _span = telemetry::span("serve.wer_tail");
        return Ok(execute_wer_tail(&request, wer));
    }
    let config = request.resolve_config()?;
    CIRCUITS.with(|cell| {
        let mut pool = cell.borrow_mut();
        if pool.len() >= MAX_POOLED_CIRCUITS {
            pool.clear();
        }
        let circuit = pool.get_or_build(job.batch_key, || PooledCircuit {
            word: request.variant.instantiate(config),
            metrics: None,
        });
        if circuit.metrics.is_none() {
            let _span = telemetry::span("serve.characterize");
            circuit.metrics = Some(circuit.word.characterize().map_err(|e| e.to_string())?);
        }
        let metrics = circuit.metrics.as_ref().expect("just computed");
        Ok(render_response(&request, metrics))
    })
}

/// Runs one `wer_tail` analysis: the adaptive tilted campaign of
/// [`mtj::rare::estimate_tail`] at the pulse width the typical die
/// needs to hit `target_wer`. Serial inside the worker (`jobs: 1`) —
/// queue workers are the service's parallelism.
fn execute_wer_tail(request: &CharacterizeRequest, wer: &WerTailRequest) -> String {
    let params = mtj::MtjParams::date2018();
    let base = mtj::VariationModel::default();
    let variation = mtj::VariationModel::new(
        base.sigma_ra(),
        base.sigma_tmr(),
        wer.sigma_switching_current,
    )
    .expect("validated at parse");
    let current = params.nominal_write_current();
    let env = mtj::rare::TailEnv::new(&params, variation, current);
    let pulse = mtj::wer::pulse_for_wer(&env.reference_model(), current, wer.target_wer);
    let result = mtj::rare::estimate_tail(
        &env,
        pulse,
        &mtj::rare::TailOptions {
            samples: wer.samples,
            seed: wer.seed,
            jobs: 1,
            ..mtj::rare::TailOptions::default()
        },
    );
    render_wer_tail_response(request, wer, &result)
}

impl CharacterizeService {
    /// Builds the service: cache, worker pool, and queue.
    #[must_use]
    pub fn new(options: &ServiceOptions) -> Self {
        let cache = Arc::new(ResultCache::with_disk(
            options.cache_capacity,
            options.cache_dir.clone(),
        ));
        let executor: Executor = Arc::new(execute);
        let queue = JobQueue::new(
            options.workers,
            options.queue_capacity,
            Arc::clone(&cache),
            executor,
        );
        Self {
            cache,
            queue,
            max_body_bytes: options.max_body_bytes,
        }
    }

    /// The request-body cap the HTTP layer should enforce.
    #[must_use]
    pub(crate) fn max_body_bytes(&self) -> usize {
        self.max_body_bytes
    }

    /// Handles one `POST /v1/characterize` body.
    pub fn handle(&self, body: &str) -> ApiResponse {
        telemetry::counter("serve.requests", 1);
        let started = std::time::Instant::now();
        let response = self.handle_inner(body);
        telemetry::histogram("serve.request_s", started.elapsed().as_secs_f64());
        response
    }

    fn handle_inner(&self, body: &str) -> ApiResponse {
        let request = match CharacterizeRequest::parse(body) {
            Ok(request) => request,
            Err(message) => return ApiResponse::error(400, &message),
        };
        let key = request.fingerprint();
        // Fast path: warm requests never touch the queue lock.
        if let Some(value) = self.cache.get(key) {
            return ApiResponse::ok("hit", value);
        }
        let job = Job {
            key,
            batch_key: request.circuit_fingerprint(),
            canonical: Arc::new(request.canonical()),
        };
        match self.queue.submit(job) {
            SubmitOutcome::Computed(value) => ApiResponse::ok("miss", value),
            SubmitOutcome::Coalesced(value) => ApiResponse::ok("coalesced", value),
            SubmitOutcome::Hit(value) => ApiResponse::ok("hit", value),
            SubmitOutcome::Shed { retry_after_s } => ApiResponse {
                retry_after_s: Some(retry_after_s),
                ..ApiResponse::error(429, "queue full, retry later")
            },
            SubmitOutcome::Draining => ApiResponse::error(503, "service is draining"),
            SubmitOutcome::Failed(message) => ApiResponse::error(500, &message),
        }
    }

    /// Stops intake (new requests get 503) without blocking.
    pub(crate) fn set_draining(&self) {
        self.queue.set_draining();
    }

    /// Graceful shutdown: stop intake, finish the backlog, join the
    /// workers. Idempotent; also run when the service drops.
    pub(crate) fn drain(&self) {
        self.queue.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_is_spelling_invariant() {
        let spellings = [
            r#"{"variant":"proposed","corner":"SS/worst","analysis":"full","overrides":{"timing.write_pulse_ns":3.0,"sizing.output_load_ff":10}}"#,
            // Key order permuted, whitespace added, numbers respelled,
            // defaults made explicit differently.
            r#" {
                "overrides": { "sizing.output_load_ff": 1e1, "timing.write_pulse_ns": 3 },
                "analysis": "full",
                "variant": "proposed",
                "corner": "ss/WORST"
            } "#,
        ];
        let keys: Vec<u128> = spellings
            .iter()
            .map(|s| CharacterizeRequest::parse(s).expect("parse").fingerprint())
            .collect();
        assert_eq!(keys[0], keys[1], "spelling must not change the key");

        // Omitted defaults match explicit ones.
        let implicit = CharacterizeRequest::parse(r#"{"variant":"standard"}"#).unwrap();
        let explicit = CharacterizeRequest::parse(
            r#"{"variant":"standard","corner":"TT/typical","analysis":"full","overrides":{}}"#,
        )
        .unwrap();
        assert_eq!(implicit.fingerprint(), explicit.fingerprint());
    }

    #[test]
    fn any_parameter_perturbation_changes_the_key() {
        let base = CharacterizeRequest::parse(
            r#"{"variant":"proposed","overrides":{"timing.write_pulse_ns":3}}"#,
        )
        .unwrap();
        let variants = [
            r#"{"variant":"standard","overrides":{"timing.write_pulse_ns":3}}"#,
            r#"{"variant":"proposed","corner":"SS/worst","overrides":{"timing.write_pulse_ns":3}}"#,
            r#"{"variant":"proposed","analysis":"read","overrides":{"timing.write_pulse_ns":3}}"#,
            r#"{"variant":"proposed","overrides":{"timing.write_pulse_ns":3.0000001}}"#,
            r#"{"variant":"proposed","overrides":{"timing.evaluate_ps":300}}"#,
            r#"{"variant":"proposed"}"#,
        ];
        for text in variants {
            let other = CharacterizeRequest::parse(text).expect(text);
            assert_ne!(base.fingerprint(), other.fingerprint(), "{text}");
        }
    }

    #[test]
    fn analysis_kind_is_in_the_key_but_not_the_circuit_key() {
        let full = CharacterizeRequest::parse(r#"{"variant":"proposed"}"#).unwrap();
        let read =
            CharacterizeRequest::parse(r#"{"variant":"proposed","analysis":"read"}"#).unwrap();
        assert_ne!(full.fingerprint(), read.fingerprint());
        assert_eq!(full.circuit_fingerprint(), read.circuit_fingerprint());
    }

    #[test]
    fn bad_requests_are_descriptive_400s() {
        for (body, needle) in [
            ("{", "malformed JSON"),
            ("[]", "must be a JSON object"),
            (r#"{"corner":"TT/typical"}"#, "variant"),
            (r#"{"variant":"nope"}"#, "unknown variant"),
            (r#"{"variant":"standard","corner":"TT"}"#, "bad corner"),
            (
                r#"{"variant":"standard","analysis":"fast"}"#,
                "unknown analysis",
            ),
            (r#"{"variant":"standard","bogus":1}"#, "unknown field"),
            (
                r#"{"variant":"standard","overrides":{"nope":1}}"#,
                "unknown override key",
            ),
            (
                r#"{"variant":"standard","overrides":{"time_step_ps":-1}}"#,
                "positive",
            ),
            (
                r#"{"variant":"standard","overrides":{"time_step_ps":"fast"}}"#,
                "must be a number",
            ),
        ] {
            let err = CharacterizeRequest::parse(body).expect_err(body);
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn responses_render_deterministically_and_filter_by_kind() {
        let request = CharacterizeRequest::parse(r#"{"variant":"standard"}"#).unwrap();
        let metrics = CellMetrics {
            read_energy: units::Energy::from_femto_joules(5.5),
            read_delay: units::Time::from_pico_seconds(70.0),
            leakage: units::Power::from_nano_watts(2.0),
            write_energy: units::Energy::from_femto_joules(300.0),
            write_latency: units::Time::from_nano_seconds(4.0),
            read_transistors: 11,
            solver: spice::SolverStats::default(),
        };
        let body = render_response(&request, &metrics);
        assert_eq!(body, render_response(&request, &metrics));
        assert!(
            body.contains("\"schema\":\"nvff-characterize/1\""),
            "{body}"
        );
        assert!(body.contains("\"read_energy_fj\":5.5"), "{body}");
        assert!(body.contains("\"leakage_nw\":2"), "{body}");
        assert!(body.ends_with('\n'));
        let parsed = JsonValue::parse(&body).expect("valid JSON");
        assert_eq!(
            parsed.get("fingerprint").and_then(JsonValue::as_str),
            Some(format!("{:032x}", request.fingerprint()).as_str())
        );

        let read_only = CharacterizeRequest {
            analysis: AnalysisKind::Read,
            ..request
        };
        let body = render_response(&read_only, &metrics);
        assert!(body.contains("read_energy_fj"), "{body}");
        assert!(!body.contains("write_energy_fj"), "{body}");
        assert!(!body.contains("leakage_nw"), "{body}");
    }

    #[test]
    fn wer_tail_requests_parse_with_materialized_defaults() {
        let implicit =
            CharacterizeRequest::parse(r#"{"variant":"proposed","analysis":"wer_tail"}"#).unwrap();
        let wer = implicit.wer.as_ref().expect("wer knobs materialized");
        assert_eq!(*wer, WerTailRequest::default());

        // Explicit defaults share the implicit request's cache entry.
        let explicit = CharacterizeRequest::parse(
            r#"{"variant":"proposed","analysis":"wer_tail",
                "wer":{"target_wer":1e-9,"samples":4000,"seed":0,
                       "sigma_switching_current":0.05}}"#,
        )
        .unwrap();
        assert_eq!(implicit.fingerprint(), explicit.fingerprint());

        // Any knob perturbation is a distinct entry.
        for body in [
            r#"{"variant":"proposed","analysis":"wer_tail","wer":{"target_wer":1e-7}}"#,
            r#"{"variant":"proposed","analysis":"wer_tail","wer":{"samples":2000}}"#,
            r#"{"variant":"proposed","analysis":"wer_tail","wer":{"seed":1}}"#,
            r#"{"variant":"proposed","analysis":"wer_tail","wer":{"sigma_switching_current":0.06}}"#,
        ] {
            let other = CharacterizeRequest::parse(body).expect(body);
            assert_ne!(implicit.fingerprint(), other.fingerprint(), "{body}");
        }
    }

    #[test]
    fn the_wer_field_stays_out_of_every_other_analysis_kind() {
        // Rejected outright where it would be silently ignored...
        let err = CharacterizeRequest::parse(
            r#"{"variant":"proposed","analysis":"read","wer":{"samples":100}}"#,
        )
        .expect_err("wer with read analysis");
        assert!(err.contains("wer_tail"), "{err}");
        // ...and absent from the canonical bytes of non-wer_tail
        // requests, so pre-existing cache keys are untouched.
        let full = CharacterizeRequest::parse(r#"{"variant":"proposed"}"#).unwrap();
        assert!(!full.canonical().contains("wer"), "{}", full.canonical());
        let tail =
            CharacterizeRequest::parse(r#"{"variant":"proposed","analysis":"wer_tail"}"#).unwrap();
        assert!(
            tail.canonical().contains("\"wer\":{"),
            "{}",
            tail.canonical()
        );
    }

    #[test]
    fn bad_wer_requests_are_descriptive_400s() {
        for (body, needle) in [
            (
                r#"{"variant":"proposed","analysis":"wer_tail","wer":[1]}"#,
                "must be an object",
            ),
            (
                r#"{"variant":"proposed","analysis":"wer_tail","wer":{"bogus":1}}"#,
                "unknown wer option",
            ),
            (
                r#"{"variant":"proposed","analysis":"wer_tail","wer":{"target_wer":2}}"#,
                "(0, 1)",
            ),
            (
                r#"{"variant":"proposed","analysis":"wer_tail","wer":{"samples":0}}"#,
                "positive integer",
            ),
            (
                r#"{"variant":"proposed","analysis":"wer_tail","wer":{"samples":1000000}}"#,
                "cap",
            ),
            (
                r#"{"variant":"proposed","analysis":"wer_tail","wer":{"seed":-1}}"#,
                "non-negative",
            ),
            (
                r#"{"variant":"proposed","analysis":"wer_tail","wer":{"sigma_switching_current":0.5}}"#,
                "",
            ),
        ] {
            let err = CharacterizeRequest::parse(body).expect_err(body);
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn wer_tail_executes_end_to_end_and_renders_deterministically() {
        let request = CharacterizeRequest::parse(
            r#"{"variant":"proposed","analysis":"wer_tail",
                "wer":{"target_wer":1e-6,"samples":600,"seed":9}}"#,
        )
        .unwrap();
        let wer = request.wer.clone().expect("wer knobs");
        let body = execute_wer_tail(&request, &wer);
        assert_eq!(body, execute_wer_tail(&request, &wer), "non-deterministic");
        assert!(body.ends_with('\n'));
        let parsed = JsonValue::parse(&body).expect("valid JSON");
        assert_eq!(
            parsed.get("analysis").and_then(JsonValue::as_str),
            Some("wer_tail")
        );
        let tail = parsed.get("wer_tail").expect("wer_tail object");
        let estimate = tail.get("wer").and_then(JsonValue::as_f64).expect("wer");
        // Population WER sits a Jensen factor above the 1e-6 typical-die
        // target; the interval must bracket the point estimate.
        assert!(estimate > 1e-7 && estimate < 1e-4, "wer {estimate}");
        let lo = tail.get("ci_lo").and_then(JsonValue::as_f64).expect("lo");
        let hi = tail.get("ci_hi").and_then(JsonValue::as_f64).expect("hi");
        assert!(lo > 0.0 && lo <= estimate && estimate <= hi, "[{lo}, {hi}]");
        assert!(
            tail.get("bf_equivalent_trials")
                .and_then(JsonValue::as_f64)
                .expect("bf-equivalent")
                > 600.0
        );
    }
}
