//! Shared report formatting for the benchmark harness binaries.
//!
//! Each binary regenerates one table or figure of the paper:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I — circuit-level setup |
//! | `table2` | Table II — cell comparison across corners |
//! | `table3` | Table III — system-level results (replay + measured) |
//! | `fig6`   | Fig. 6 — store/restore working sequences (waveforms) |
//! | `fig8`   | Fig. 8 — layout of the proposed 2-bit cell (SVG) |
//! | `fig9`   | Fig. 9 — s344 floorplan with mergeable flip-flops (SVG) |
//! | `ablations` | the design-choice studies listed in DESIGN.md |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shmoo;

/// Extracts the `--json <path>` argument from the process command line
/// (the machine-readable run-report mode shared by the bench binaries).
///
/// # Examples
///
/// ```
/// // No --json flag in the test harness's own argv.
/// assert_eq!(nvff_bench::json_path_from_args(), None);
/// ```
#[must_use]
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next().map(std::path::PathBuf::from);
        }
        if let Some(path) = a.strip_prefix("--json=") {
            return Some(std::path::PathBuf::from(path));
        }
    }
    None
}

/// Extracts the `--jobs <N>` argument from the process command line —
/// the shared worker-count flag of the bench binaries. Returns `0`
/// (auto: one worker per hardware thread) when absent; `--jobs 1`
/// selects the serial path.
///
/// # Examples
///
/// ```
/// // No --jobs flag in the test harness's own argv → auto.
/// assert_eq!(nvff_bench::jobs_from_args(), 0);
/// ```
#[must_use]
pub fn jobs_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let value = if a == "--jobs" {
            args.next()
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            Some(v.to_owned())
        } else {
            continue;
        };
        return value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("warning: --jobs expects an integer; using auto");
            0
        });
    }
    0
}

/// Extracts the `--lanes <L>` argument from the process command line —
/// the SIMD lane count of the lane-batched Monte-Carlo kernels.
/// Returns `0` (auto: the built-in default width) when
/// absent; `--lanes 1` selects the scalar reference kernel. The lane
/// count never changes results, only throughput.
///
/// # Examples
///
/// ```
/// // No --lanes flag in the test harness's own argv → auto.
/// assert_eq!(nvff_bench::lanes_from_args(), 0);
/// ```
#[must_use]
pub fn lanes_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let value = if a == "--lanes" {
            args.next()
        } else if let Some(v) = a.strip_prefix("--lanes=") {
            Some(v.to_owned())
        } else {
            continue;
        };
        return value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("warning: --lanes expects an integer; using auto");
            0
        });
    }
    0
}

/// A running `/metrics` sidecar owned by a bench binary — see
/// [`serve_from_args`]. Keep it alive for the duration of the run and
/// call [`finish`](ServeGuard::finish) after the results are written.
pub struct ServeGuard {
    server: serve::MetricsServer,
    linger: std::time::Duration,
}

impl ServeGuard {
    /// Ends the sidecar: if `--serve-linger <secs>` was given, keeps
    /// serving for up to that long (released early by
    /// `GET /quitquitquit`) so a scraper can collect the final state,
    /// then shuts the server down.
    pub fn finish(mut self) {
        if !self.linger.is_zero() {
            eprintln!(
                "serving http://{}/metrics for up to {:.0}s more (GET /quitquitquit to release)",
                self.server.local_addr(),
                self.linger.as_secs_f64(),
            );
            self.server.wait_quit(Some(self.linger));
        }
        self.server.shutdown();
    }
}

/// Starts the `/metrics` sidecar when `--serve <addr>` is on the
/// process command line; returns `None` when the flag is absent.
///
/// Companion flags: `--serve-addr-file <path>` writes the bound address
/// (one line) so scripts can discover an OS-assigned port, and
/// `--serve-linger <secs>` keeps the server up after the run finishes
/// (see [`ServeGuard::finish`]). Serving implies telemetry collection —
/// a scrape of an empty registry would be pointless — so this calls
/// [`telemetry::ensure_collecting`]. Exits the process on a bind
/// failure: a requested-but-dead metrics endpoint should not fail
/// silently.
///
/// # Examples
///
/// ```
/// // No --serve flag in the test harness's own argv.
/// assert!(nvff_bench::serve_from_args().is_none());
/// ```
#[must_use]
pub fn serve_from_args() -> Option<ServeGuard> {
    let mut addr: Option<String> = None;
    let mut addr_file: Option<std::path::PathBuf> = None;
    let mut linger = std::time::Duration::ZERO;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--serve" => addr = args.next(),
            "--serve-addr-file" => addr_file = args.next().map(std::path::PathBuf::from),
            "--serve-linger" => {
                let secs: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("warning: --serve-linger expects seconds; using 0");
                    0.0
                });
                linger = std::time::Duration::from_secs_f64(secs.max(0.0));
            }
            _ => {
                if let Some(v) = a.strip_prefix("--serve=") {
                    addr = Some(v.to_owned());
                }
            }
        }
    }
    let addr = addr?;
    telemetry::ensure_collecting();
    let server = match serve::MetricsServer::bind(addr.as_str()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: --serve {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("serving http://{}/metrics", server.local_addr());
    if let Some(path) = addr_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", server.local_addr())) {
            eprintln!("warning: --serve-addr-file {}: {e}", path.display());
        }
    }
    Some(ServeGuard { server, linger })
}

/// Appends a [`sweep::RunSummary`] to a run-report section as the
/// `parallel.*` fields of the `nvff-run-report/1` schema: worker count,
/// wall-clock vs cumulative solver-side job time, and realized speedup.
pub fn push_parallel_summary(section: &mut telemetry::Section, summary: &sweep::RunSummary) {
    section.push("parallel.workers", summary.workers as u64);
    section.push("parallel.points", summary.points as u64);
    section.push("parallel.resumed", summary.resumed as u64);
    section.push("parallel.wall_s", summary.wall_s);
    section.push("parallel.busy_s", summary.busy_s);
    section.push("parallel.speedup", summary.speedup());
}

/// Appends the [`spice::SolverStats`] counters to a run-report
/// section under `<prefix>` names — the bench side of the telemetry
/// boundary (the telemetry crate stays ignorant of solver types).
pub fn push_solver_stats(
    section: &mut telemetry::Section,
    prefix: &str,
    stats: spice::SolverStats,
) {
    section.push(
        &format!("{prefix}newton_iterations"),
        stats.newton_iterations,
    );
    section.push(
        &format!("{prefix}lu_factorizations"),
        stats.lu_factorizations,
    );
    section.push(&format!("{prefix}accepted_steps"), stats.accepted_steps);
    section.push(&format!("{prefix}rejected_steps"), stats.rejected_steps);
    section.push(&format!("{prefix}step_halvings"), stats.step_halvings);
    section.push(&format!("{prefix}pattern_reuses"), stats.pattern_reuses);
    section.push(&format!("{prefix}symbolic_builds"), stats.symbolic_builds);
    section.push(&format!("{prefix}repivots"), stats.repivots);
    section.push(&format!("{prefix}lte_rejections"), stats.lte_rejections);
    section.push(&format!("{prefix}source_steps"), stats.source_steps);
}

/// Formats a measured-vs-paper comparison line: value, reference, and
/// the ratio between them.
///
/// # Examples
///
/// ```
/// let line = nvff_bench::compare_line("read energy [fJ]", 4.9, 4.587);
/// assert!(line.contains("4.9"));
/// assert!(line.contains("1.07"));
/// ```
#[must_use]
pub fn compare_line(label: &str, measured: f64, paper: f64) -> String {
    let ratio = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    format!("{label:<34} measured {measured:>10.3}   paper {paper:>10.3}   ratio {ratio:>5.2}")
}

/// Renders an ASCII waveform strip: the trace resampled to `width`
/// columns, quantized to `height` rows (top row = `max`).
///
/// # Panics
///
/// Panics if `width` or `height` is zero or the trace is empty.
#[must_use]
pub fn ascii_waveform(
    name: &str,
    times: &[f64],
    values: &[f64],
    width: usize,
    height: usize,
) -> String {
    assert!(width > 0 && height > 0, "width and height must be positive");
    assert!(!times.is_empty(), "empty trace");
    let t0 = times[0];
    let t1 = *times.last().expect("nonempty");
    let vmin = values.iter().copied().fold(f64::INFINITY, f64::min);
    let vmax = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (vmax - vmin).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for (col, _) in (0..width).enumerate() {
        let t = t0 + (t1 - t0) * col as f64 / (width - 1).max(1) as f64;
        let v = spice::measure::interpolate(times, values, t);
        let row = ((vmax - v) / span * (height - 1) as f64).round() as usize;
        grid[row.min(height - 1)][col] = '•';
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{vmax:>7.2} ")
        } else if r == height - 1 {
            format!("{vmin:>7.2} ")
        } else {
            " ".repeat(8)
        };
        out.push_str(&label);
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>8} {}\n", "", name));
    out
}

/// Writes trace columns as CSV (`time` plus one column per trace).
///
/// # Panics
///
/// Panics if the traces have different lengths.
#[must_use]
pub fn traces_to_csv(times: &[f64], traces: &[(&str, &[f64])]) -> String {
    use std::fmt::Write as _;
    for (name, values) in traces {
        assert_eq!(values.len(), times.len(), "trace {name} length mismatch");
    }
    let mut out = String::from("time_s");
    for (name, _) in traces {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for (k, t) in times.iter().enumerate() {
        let _ = write!(out, "{t:.6e}");
        for (_, values) in traces {
            let _ = write!(out, ",{:.6e}", values[k]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_line_formats() {
        let line = compare_line("x", 2.0, 4.0);
        assert!(line.contains("0.50"));
        assert!(compare_line("x", 1.0, 0.0).contains("NaN"));
    }

    #[test]
    fn ascii_waveform_spans_the_range() {
        let times: Vec<f64> = (0..10).map(f64::from).collect();
        let values: Vec<f64> = (0..10).map(|k| f64::from(k % 2)).collect();
        let art = ascii_waveform("clk", &times, &values, 20, 5);
        assert!(art.contains('•'));
        assert!(art.contains("1.00"));
        assert!(art.contains("0.00"));
        assert!(art.contains("clk"));
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let _ = ascii_waveform("x", &[], &[], 10, 5);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = traces_to_csv(
            &[0.0, 1.0],
            &[("a", &[1.0, 2.0][..]), ("b", &[3.0, 4.0][..])],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,a,b");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0.0"));
    }
}
