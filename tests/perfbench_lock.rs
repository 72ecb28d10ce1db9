//! The benchmark package in `perfbench/` has its own lock file and is
//! built `--offline --locked`. That lock lists the library crates'
//! dependencies, so dropping one from a library manifest without
//! refreshing it makes the benchmark build fail with "cannot update
//! the lock file". This test resolves the benchmark's dependency graph
//! the same way, so the mismatch fails here instead.

use std::process::Command;

#[test]
fn perfbench_lock_file_resolves_offline() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/perfbench/Cargo.toml");
    // No `--no-deps`: that flag skips resolution, so it would pass anyway.
    let out = Command::new(cargo)
        .args(["metadata", "--offline", "--locked", "--format-version", "1"])
        .args(["--manifest-path", manifest])
        .output()
        .expect("cargo starts");
    assert!(
        out.status.success(),
        "perfbench/Cargo.lock does not resolve --offline --locked:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
