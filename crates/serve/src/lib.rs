//! Zero-dependency HTTP service for the spintronic-ff workspace:
//! `/metrics` scraping plus characterization-as-a-service.
//!
//! The build is offline, so there is no hyper, no axum, not even a
//! TLS stack — `http` hand-rolls the one-request-per-connection
//! slice of HTTP/1.1 a Prometheus scrape and a JSON POST need over
//! `std::net`, and `metrics` renders the live [`telemetry`] registry
//! snapshot in the text exposition format. [`server::MetricsServer`]
//! ties them together as a background accept thread.
//!
//! On top of the metrics routes sits the characterization service
//! (`POST /v1/characterize`), three layers deep:
//!
//! - `api` — request parsing/validation, canonicalization, and the
//!   128-bit content fingerprint that keys everything;
//! - `cache` — a sharded in-memory LRU of rendered responses with an
//!   optional content-addressed on-disk layer (`NVFF_CACHE_DIR`);
//! - `queue` — single-flight coalescing, same-topology batching over
//!   a pool of simulation workers, bounded-queue load shedding, and
//!   graceful drain.
//!
//! Two deployment shapes:
//!
//! - **sidecar** — bench binaries pass `--serve <addr>` and keep a
//!   [`MetricsServer`] alive for the duration of the run (see
//!   `bench::serve_from_args`), so a long characterization sweep can be
//!   watched live from `curl` or a Prometheus scraper;
//! - **standalone** — the `nvff-serve` binary binds an address, prints
//!   it, and serves (metrics *and* characterization) until
//!   `GET /quitquitquit` arrives.
//!
//! ```no_run
//! let service = std::sync::Arc::new(serve::CharacterizeService::new(
//!     &serve::ServiceOptions::default(),
//! ));
//! let server = serve::MetricsServer::bind_with("127.0.0.1:0", Some(service)).expect("bind");
//! println!("characterize at http://{}/v1/characterize", server.local_addr());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod cache;
mod http;
mod metrics;
mod queue;
mod server;

pub use api::{CharacterizeRequest, CharacterizeService, ServiceOptions};
pub use http::READ_TIMEOUT;
pub use metrics::{escape_label_value, render_prometheus, sanitize_metric_name};
pub use server::MetricsServer;
