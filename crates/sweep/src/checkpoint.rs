//! Resumable checkpoints for long sweeps.
//!
//! [`run_checkpointed`] behaves like
//! [`run_with_state`](crate::run_with_state) but persists completed
//! results to a JSON file (written with `telemetry::json`, the
//! workspace's own zero-dependency writer) every few completions. If
//! the process is interrupted, rerunning with the same grid and policy
//! loads the file, restores the finished points, and executes only the
//! remainder — and because every point's randomness is derived from its
//! grid index ([`point_seed`](crate::point_seed)), the resumed run's
//! results are bit-identical to an uninterrupted one.
//!
//! The file is bound to its grid by a caller-supplied
//! [`fingerprint`](crate::fingerprint) plus the grid's length and base
//! seed; a mismatch is an error rather than a silent restart, so a
//! stale checkpoint can never corrupt a campaign.

use std::fmt;
use std::path::{Path, PathBuf};

use telemetry::JsonValue;

use crate::grid::Grid;
use crate::pool::{run_pending, Progress, SweepOptions, SweepOutcome};

/// Schema tag of the checkpoint file format.
pub const CHECKPOINT_SCHEMA: &str = "nvff-sweep-checkpoint/1";

/// Conversion between result values and the checkpoint's JSON cells.
///
/// Implemented for the scalar types sweep results are made of; compose
/// with `Vec` for per-point series.
pub trait JsonCodec: Sized {
    /// Encodes the value.
    fn encode(&self) -> JsonValue;
    /// Decodes a value; `None` marks a corrupt cell.
    fn decode(value: &JsonValue) -> Option<Self>;
}

impl JsonCodec for f64 {
    fn encode(&self) -> JsonValue {
        JsonValue::Float(*self)
    }
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_f64()
    }
}

impl JsonCodec for u64 {
    // Bit-cast through i64 (the same convention as the header fields),
    // so the full u64 range round-trips exactly.
    fn encode(&self) -> JsonValue {
        JsonValue::Int(*self as i64)
    }
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_i64().map(|v| v as u64)
    }
}

impl JsonCodec for i64 {
    fn encode(&self) -> JsonValue {
        JsonValue::Int(*self)
    }
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_i64()
    }
}

impl JsonCodec for bool {
    fn encode(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
    fn decode(value: &JsonValue) -> Option<Self> {
        match value {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl JsonCodec for String {
    fn encode(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_str().map(str::to_owned)
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn encode(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(JsonCodec::encode).collect())
    }
    fn decode(value: &JsonValue) -> Option<Self> {
        value.as_array()?.iter().map(T::decode).collect()
    }
}

/// Where and how often to checkpoint a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint file path. Written atomically (temp file + rename).
    pub path: PathBuf,
    /// Save after this many completed jobs (and once more at the end).
    pub every: usize,
    /// Caller-supplied fingerprint of the grid *contents* (see
    /// [`fingerprint`](crate::fingerprint)); resuming against a file
    /// with a different fingerprint is refused.
    pub fingerprint: u64,
}

impl CheckpointPolicy {
    /// A policy saving every 16 completions.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, fingerprint: u64) -> Self {
        Self {
            path: path.into(),
            every: 16,
            fingerprint,
        }
    }
}

/// Errors from checkpoint loading, validation, or saving.
#[derive(Debug)]
pub enum CheckpointError {
    /// File-system failure reading or writing the checkpoint.
    Io(std::io::Error),
    /// The file exists but is not a well-formed checkpoint.
    Corrupt(String),
    /// The file belongs to a different grid (fingerprint, length or
    /// base seed differ).
    Mismatch {
        /// The offending checkpoint file.
        path: PathBuf,
        /// What the running grid expects.
        expected: String,
        /// What the file declares.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            Self::Mismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {} belongs to a different grid: running grid has {expected}, \
                 file declares {found}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

fn grid_tag<P>(grid: &Grid<P>, fingerprint: u64) -> String {
    format!(
        "fingerprint={fingerprint:#018x} points={} base_seed={}",
        grid.len(),
        grid.base_seed()
    )
}

fn encode_file(
    fingerprint: u64,
    points: usize,
    base_seed: u64,
    done: &[(usize, JsonValue)],
) -> String {
    let entries: Vec<JsonValue> = done
        .iter()
        .map(|(index, value)| {
            JsonValue::Array(vec![
                JsonValue::Int(i64::try_from(*index).unwrap_or(i64::MAX)),
                value.clone(),
            ])
        })
        .collect();
    let mut text = JsonValue::object(vec![
        ("schema".into(), JsonValue::Str(CHECKPOINT_SCHEMA.into())),
        ("fingerprint".into(), JsonValue::Int(fingerprint as i64)),
        (
            "points".into(),
            JsonValue::Int(i64::try_from(points).unwrap_or(i64::MAX)),
        ),
        ("base_seed".into(), JsonValue::Int(base_seed as i64)),
        ("done".into(), JsonValue::Array(entries)),
    ])
    .to_json();
    text.push('\n');
    text
}

fn save_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Loads and validates an existing checkpoint, returning the decoded
/// `(index, value)` pairs. `Ok(None)` means no file exists (a fresh
/// run).
fn load<P, T: JsonCodec>(
    grid: &Grid<P>,
    policy: &CheckpointPolicy,
) -> Result<Option<Vec<(usize, T)>>, CheckpointError> {
    let text = match std::fs::read_to_string(&policy.path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let doc = JsonValue::parse(&text)
        .map_err(|e| CheckpointError::Corrupt(format!("unparseable JSON: {e}")))?;
    let schema = doc.get("schema").and_then(JsonValue::as_str);
    if schema != Some(CHECKPOINT_SCHEMA) {
        return Err(CheckpointError::Corrupt(format!(
            "schema {schema:?}, expected {CHECKPOINT_SCHEMA:?}"
        )));
    }
    let field_u64 = |name: &str| -> Result<u64, CheckpointError> {
        doc.get(name)
            .and_then(JsonValue::as_i64)
            .map(|v| v as u64)
            .ok_or_else(|| CheckpointError::Corrupt(format!("missing integer field {name:?}")))
    };
    let fingerprint = field_u64("fingerprint")?;
    let points = field_u64("points")? as usize;
    let base_seed = field_u64("base_seed")?;
    if fingerprint != policy.fingerprint || points != grid.len() || base_seed != grid.base_seed() {
        return Err(CheckpointError::Mismatch {
            path: policy.path.clone(),
            expected: grid_tag(grid, policy.fingerprint),
            found: format!("fingerprint={fingerprint:#018x} points={points} base_seed={base_seed}"),
        });
    }
    let done = doc
        .get("done")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| CheckpointError::Corrupt("missing done array".into()))?;
    let mut decoded = Vec::with_capacity(done.len());
    for entry in done {
        let cells = entry
            .as_array()
            .filter(|cells| cells.len() == 2)
            .ok_or_else(|| CheckpointError::Corrupt("done entry is not a pair".into()))?;
        let index = cells[0]
            .as_i64()
            .and_then(|v| usize::try_from(v).ok())
            .filter(|&i| i < grid.len())
            .ok_or_else(|| CheckpointError::Corrupt("done entry index out of range".into()))?;
        let value = T::decode(&cells[1])
            .ok_or_else(|| CheckpointError::Corrupt(format!("undecodable value at {index}")))?;
        decoded.push((index, value));
    }
    Ok(Some(decoded))
}

/// Runs a sweep with periodic checkpointing, resuming from `policy.path`
/// if a matching checkpoint exists.
///
/// Semantics match [`run_with_state`](crate::run_with_state), with two
/// additions: previously-completed points are restored instead of
/// executed (counted in
/// [`RunSummary::resumed`](crate::RunSummary::resumed)), and completed
/// work is persisted every [`CheckpointPolicy::every`] jobs plus once
/// at the end. The checkpoint file is left in place after a complete
/// run — rerunning is then a no-op restore.
///
/// # Errors
///
/// Fails on checkpoint I/O errors, a corrupt file, or a file written
/// for a different grid (wrong fingerprint, length or base seed).
pub fn run_checkpointed<P, S, T, FS, FJ>(
    grid: &Grid<P>,
    opts: &SweepOptions,
    policy: &CheckpointPolicy,
    make_state: FS,
    job: FJ,
    on_progress: Option<&mut dyn FnMut(&Progress)>,
) -> Result<SweepOutcome<T>, CheckpointError>
where
    P: Sync,
    T: JsonCodec + Send,
    FS: Fn(usize) -> S + Sync,
    FJ: Fn(&mut S, &crate::JobCtx, &P) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..grid.len()).map(|_| None).collect();
    let mut done: Vec<(usize, JsonValue)> = Vec::new();
    if let Some(restored) = load::<P, T>(grid, policy)? {
        for (index, value) in restored {
            done.push((index, value.encode()));
            slots[index] = Some(value);
        }
    }
    let pending: Vec<usize> = (0..grid.len()).filter(|&i| slots[i].is_none()).collect();

    let every = policy.every.max(1);
    let fingerprint = policy.fingerprint;
    let points = grid.len();
    let base_seed = grid.base_seed();
    let path = policy.path.clone();
    let mut since_save = 0usize;
    // Mid-run save failures are tolerated (the final save below is
    // authoritative); losing an intermediate checkpoint only costs
    // re-execution, never correctness.
    let mut sink = |index: usize, result: &T| {
        done.push((index, result.encode()));
        since_save += 1;
        if since_save >= every {
            since_save = 0;
            let _ = save_atomic(&path, &encode_file(fingerprint, points, base_seed, &done));
        }
    };

    let (results, summary) = run_pending(
        grid,
        pending,
        slots,
        opts,
        &make_state,
        &job,
        on_progress,
        &mut sink,
    );

    // Final authoritative save: every point, in one atomic write.
    let complete: Vec<(usize, JsonValue)> = results
        .iter()
        .enumerate()
        .map(|(index, value)| (index, value.encode()))
        .collect();
    save_atomic(
        &policy.path,
        &encode_file(policy.fingerprint, grid.len(), grid.base_seed(), &complete),
    )?;
    Ok(SweepOutcome { results, summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nvff-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn seeded_job(ctx: &crate::JobCtx, p: &u64) -> u64 {
        ctx.seed.wrapping_mul(31).wrapping_add(*p)
    }

    #[test]
    fn fresh_run_writes_a_resumable_checkpoint() {
        let path = temp_path("fresh.json");
        let _ = std::fs::remove_file(&path);
        let grid = Grid::with_seed((0..20u64).collect(), 5);
        let policy = CheckpointPolicy {
            path: path.clone(),
            every: 4,
            fingerprint: crate::fingerprint("fresh-test"),
        };
        let executed = AtomicUsize::new(0);
        let job = |_: &mut (), ctx: &crate::JobCtx, p: &u64| {
            executed.fetch_add(1, Ordering::Relaxed);
            seeded_job(ctx, p)
        };
        let opts = SweepOptions::with_jobs(2);
        let first = run_checkpointed(&grid, &opts, &policy, |_| (), job, None).expect("first run");
        assert_eq!(executed.load(Ordering::Relaxed), 20);
        assert_eq!(first.summary.resumed, 0);

        // Rerunning restores everything and executes nothing.
        let second = run_checkpointed(&grid, &opts, &policy, |_| (), job, None).expect("resume");
        assert_eq!(executed.load(Ordering::Relaxed), 20, "no re-execution");
        assert_eq!(second.summary.resumed, 20);
        assert_eq!(second.results, first.results);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partial_checkpoint_resumes_only_the_missing_points() {
        let path = temp_path("partial.json");
        let _ = std::fs::remove_file(&path);
        let grid = Grid::with_seed((0..12u64).collect(), 77);
        let policy = CheckpointPolicy {
            path: path.clone(),
            every: 1,
            fingerprint: crate::fingerprint("partial-test"),
        };
        let job = |_: &mut (), ctx: &crate::JobCtx, p: &u64| seeded_job(ctx, p);
        let full = run_checkpointed(
            &grid,
            &SweepOptions::with_jobs(1),
            &policy,
            |_| (),
            job,
            None,
        )
        .expect("full run");

        // Simulate an interrupted run: keep only the even-index entries.
        let text = std::fs::read_to_string(&path).expect("checkpoint");
        let doc = JsonValue::parse(&text).expect("parse");
        let done: Vec<JsonValue> = doc
            .get("done")
            .and_then(JsonValue::as_array)
            .expect("done")
            .iter()
            .filter(|entry| entry.as_array().expect("pair")[0].as_i64().expect("index") % 2 == 0)
            .cloned()
            .collect();
        let truncated = JsonValue::object(vec![
            ("schema".into(), JsonValue::Str(CHECKPOINT_SCHEMA.into())),
            (
                "fingerprint".into(),
                JsonValue::Int(policy.fingerprint as i64),
            ),
            ("points".into(), JsonValue::Int(12)),
            ("base_seed".into(), JsonValue::Int(77)),
            ("done".into(), JsonValue::Array(done)),
        ]);
        std::fs::write(&path, truncated.to_json()).expect("rewrite");

        let executed = AtomicUsize::new(0);
        let resumed = run_checkpointed(
            &grid,
            &SweepOptions::with_jobs(3),
            &policy,
            |_| (),
            |_: &mut (), ctx: &crate::JobCtx, p: &u64| {
                executed.fetch_add(1, Ordering::Relaxed);
                assert_eq!(ctx.index % 2, 1, "only odd points re-execute");
                seeded_job(ctx, p)
            },
            None,
        )
        .expect("resume");
        assert_eq!(executed.load(Ordering::Relaxed), 6);
        assert_eq!(resumed.summary.resumed, 6);
        assert_eq!(resumed.results, full.results, "resume is bit-identical");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_checkpoint_is_refused() {
        let path = temp_path("mismatch.json");
        let _ = std::fs::remove_file(&path);
        let grid = Grid::with_seed(vec![1u64, 2, 3], 9);
        let policy = CheckpointPolicy::new(&path, crate::fingerprint("grid-a"));
        let job = |_: &mut (), ctx: &crate::JobCtx, p: &u64| seeded_job(ctx, p);
        run_checkpointed(
            &grid,
            &SweepOptions::with_jobs(1),
            &policy,
            |_| (),
            job,
            None,
        )
        .expect("first run");

        let other = CheckpointPolicy::new(&path, crate::fingerprint("grid-b"));
        let err = run_checkpointed(
            &grid,
            &SweepOptions::with_jobs(1),
            &other,
            |_| (),
            job,
            None,
        )
        .expect_err("fingerprint mismatch");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        // The refusal must be diagnosable from the message alone: the
        // offending file and both fingerprints.
        let message = err.to_string();
        assert!(
            message.contains(&path.display().to_string()),
            "message names the file: {message}"
        );
        assert!(
            message.contains(&format!(
                "fingerprint={:#018x}",
                crate::fingerprint("grid-b")
            )),
            "message carries the expected fingerprint: {message}"
        );
        assert!(
            message.contains(&format!(
                "fingerprint={:#018x}",
                crate::fingerprint("grid-a")
            )),
            "message carries the file's fingerprint: {message}"
        );

        // A different grid shape is refused too.
        let longer = Grid::with_seed(vec![1u64, 2, 3, 4], 9);
        let err = run_checkpointed(
            &longer,
            &SweepOptions::with_jobs(1),
            &policy,
            |_| (),
            job,
            None,
        )
        .expect_err("length mismatch");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");

        // So is the same grid under another base seed: its per-point
        // seeds differ, so the recorded results do not belong to it.
        let reseeded = Grid::with_seed(vec![1u64, 2, 3], 10);
        let err = run_checkpointed(
            &reseeded,
            &SweepOptions::with_jobs(1),
            &policy,
            |_| (),
            job,
            None,
        )
        .expect_err("base seed mismatch");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_is_reported() {
        let path = temp_path("corrupt.json");
        std::fs::write(&path, "{not json").expect("write");
        let grid = Grid::new(vec![1u64]);
        let policy = CheckpointPolicy::new(&path, 1);
        let err = run_checkpointed(
            &grid,
            &SweepOptions::with_jobs(1),
            &policy,
            |_| (),
            |_: &mut (), ctx: &crate::JobCtx, p: &u64| seeded_job(ctx, p),
            None,
        )
        .expect_err("corrupt file");
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn codec_round_trips() {
        assert_eq!(f64::decode(&1.5f64.encode()), Some(1.5));
        assert_eq!(u64::decode(&7u64.encode()), Some(7));
        assert_eq!(i64::decode(&(-3i64).encode()), Some(-3));
        assert_eq!(bool::decode(&true.encode()), Some(true));
        assert_eq!(String::decode(&"x".to_owned().encode()), Some("x".into()));
        let v = vec![1.0f64, 2.0];
        assert_eq!(Vec::<f64>::decode(&v.encode()), Some(v));
        assert_eq!(u64::decode(&JsonValue::Str("nope".into())), None);
    }
}
