//! Standalone characterization service: binds an address, prints it,
//! and serves until told to quit.
//!
//! ```text
//! nvff-serve [addr] [--addr-file <path>]   # default addr 127.0.0.1:9464
//! ```
//!
//! Routes: `POST /v1/characterize` (the characterization API, answered
//! from the content-addressed result cache), `GET /metrics`,
//! `GET /healthz`, `GET /quitquitquit` (graceful drain + exit).
//!
//! `--addr-file` writes the bound address to a file once listening —
//! the hand-rolled analogue of systemd socket activation for scripts
//! that bind port 0 and need to discover the real port (the
//! `scripts/ci.sh` service smoke uses it).
//!
//! Service sizing comes from the environment: `NVFF_CACHE_DIR` enables
//! the on-disk result cache, `NVFF_SERVE_WORKERS` / `NVFF_SERVE_QUEUE`
//! / `NVFF_SERVE_MAX_BODY` override the worker count, queue bound and
//! request-body cap.

use std::sync::Arc;

fn main() {
    let mut addr = "127.0.0.1:9464".to_owned();
    let mut addr_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("usage: nvff-serve [addr] [--addr-file <path>]");
                eprintln!("       (default addr 127.0.0.1:9464)");
                eprintln!("routes: POST /v1/characterize; GET /metrics /healthz /quitquitquit");
                return;
            }
            "--addr-file" => match args.next() {
                Some(path) => addr_file = Some(path),
                None => {
                    eprintln!("nvff-serve: --addr-file needs a path");
                    std::process::exit(2);
                }
            },
            other => addr = other.to_owned(),
        }
    }

    // Make sure the registry is at least collecting, so the service
    // counters and solver spans show up in scrapes.
    telemetry::ensure_collecting();

    let options = serve::ServiceOptions::from_env();
    let service = Arc::new(serve::CharacterizeService::new(&options));
    let server = match serve::MetricsServer::bind_with(addr.as_str(), Some(service)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("nvff-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let bound = server.local_addr();
    if let Some(path) = &addr_file {
        // tmp + rename so a polling reader never sees a partial write.
        let tmp = format!("{path}.tmp-{}", std::process::id());
        let written =
            std::fs::write(&tmp, format!("{bound}\n")).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = written {
            eprintln!("nvff-serve: cannot write --addr-file {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("nvff-serve: listening on http://{bound}/v1/characterize");
    println!("nvff-serve: metrics at http://{bound}/metrics");
    server.wait_quit(None);
    // Dropping the server joins its threads and drains the service
    // (finishing any queued characterizations) before exit.
    drop(server);
    println!("nvff-serve: quit requested, shutting down");
}
