#![warn(missing_docs)]
//! **mee-campaign** — a crash-safe sharded campaign runner.
//!
//! The paper's headline numbers (≈35 KBps at ~1–2 % BER) are statistical
//! claims over many independent sessions; ROADMAP's fleet-scale item calls
//! for 10⁵–10⁶ sessions per invocation. At that scale the orchestration
//! itself must survive faults: a killed process, a shard whose session
//! panics, a shard that hangs. This crate layers exactly that machinery on
//! the [`mee_sweep`] seed-space conventions:
//!
//! * **Sharding** — the session index space `0..sessions` is partitioned
//!   into contiguous shards; session `i`'s seed is
//!   `stream_seed(root, i)` exactly as in a plain sweep, so a campaign
//!   result is replayable one session at a time and independent of how it
//!   was sharded *scheduled* (shard layout is part of the campaign
//!   identity; scheduling is not).
//! * **Constant-memory aggregation** — each shard folds its sessions into
//!   [`agg::ShardAggregate`] (count/mean/variance/min/max plus a
//!   deterministic quantile sketch per series); no per-session log is
//!   retained.
//! * **Checkpoint / resume** — completed shards are written atomically
//!   (temp + `fsync` + rename, checksummed); a killed campaign rerun with
//!   [`CampaignPlan::resume`] loads them and recomputes only the missing
//!   shards. Because per-shard aggregates are pure functions of the shard
//!   and the final merge is in fixed shard order, *resumed ≡ uninterrupted,
//!   bit for bit, at any thread count* — proven by tests.
//! * **Quarantine** — a session body is a pure function of its seed, so a
//!   shard whose body panics or errors would fail the same way again: it
//!   is quarantined on that first attempt and the campaign **completes
//!   anyway**, reporting exactly which sessions (and therefore seeds) are
//!   missing. Callers exit non-zero on [`CampaignOutcome::is_complete`]
//!   being false.
//! * **Watchdog** — an optional per-attempt timeout cancels hung shards
//!   (cooperatively, via [`ShardCtx::is_cancelled`]). A timeout is the one
//!   outcome that can change, so only a timed-out attempt is retried, at
//!   once; a shard that times out on every attempt of a fixed budget is
//!   quarantined as hung.
//!
//! Shards run on [`mee_sweep::Sweep::run`], one sweep item per pending
//! shard: the worker that takes a shard runs its attempts, watchdog, and
//! checkpoint itself, and the calling thread merges the results in shard
//! order; there is no coordinator thread.
//!
//! ```
//! use mee_campaign::{Campaign, CampaignPlan};
//!
//! let plan = CampaignPlan::new("doc/example", 2019, 8, 4);
//! let campaign = Campaign::new(plan, vec!["value".into()], "doc/v1").unwrap();
//! let outcome = campaign
//!     .run(|spec, _ctx| Ok(vec![spec.seed as f64 / u64::MAX as f64]))
//!     .unwrap();
//! assert!(outcome.is_complete());
//! assert_eq!(outcome.aggregate.sessions, 8);
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod agg;
pub mod checkpoint;
mod runner;

pub use agg::{CampaignAggregate, QuantileSketch, SeriesAgg, ShardAggregate, StreamStats};
pub use checkpoint::{CampaignIdentity, CheckpointError};
pub use mee_sweep::SessionSpec;

use mee_obs::{CampaignLog, HostProfile};
use mee_rng::env_knob::{self, EnvKnobError};

/// Environment variable overriding the shard count (read by
/// [`shards_from_env`]); parsed through the workspace strict-knob grammar
/// (a malformed value is a loud error, never a silent default).
pub const SHARDS_ENV: &str = "MEE_CAMPAIGN_SHARDS";

/// Environment variable naming the default checkpoint directory; parsed
/// through the workspace strict-knob grammar (set-but-empty is a loud
/// error).
pub const DIR_ENV: &str = "MEE_CAMPAIGN_DIR";

/// The [`HostProfile`] span covering one shard attempt's body.
pub const SHARD_SPAN: &str = "campaign_shard";

/// The [`HostProfile`] span covering one atomic checkpoint write.
pub const CHECKPOINT_WRITE_SPAN: &str = "campaign_checkpoint_write";

/// The [`HostProfile`] span covering one checkpoint load during resume.
pub const CHECKPOINT_LOAD_SPAN: &str = "campaign_checkpoint_load";

/// Reads the [`SHARDS_ENV`] override (`Ok(None)` when unset).
///
/// # Errors
///
/// Returns the strict-knob [`EnvKnobError`] when set but not a positive
/// integer — identical policy to `MEE_SWEEP_THREADS`.
pub fn shards_from_env() -> Result<Option<usize>, EnvKnobError> {
    std::env::var(SHARDS_ENV)
        .ok()
        .map(|v| env_knob::parse_positive(SHARDS_ENV, &v))
        .transpose()
}

/// Reads the [`DIR_ENV`] override (`Ok(None)` when unset).
///
/// # Errors
///
/// Returns the strict-knob [`EnvKnobError`] when set but empty or
/// whitespace-only.
pub fn dir_from_env() -> Result<Option<PathBuf>, EnvKnobError> {
    std::env::var(DIR_ENV)
        .ok()
        .map(|v| env_knob::parse_nonempty(DIR_ENV, &v).map(PathBuf::from))
        .transpose()
}

/// The contiguous session range of shard `s` in a balanced partition of
/// `sessions` over `shards` (first `sessions % shards` shards get one
/// extra session).
///
/// # Panics
///
/// Panics when `shards` is zero (which [`Campaign::new`] rejects) or `s`
/// is out of range (the runner only asks for `s < shards`).
pub(crate) fn shard_range(sessions: usize, shards: usize, s: usize) -> std::ops::Range<usize> {
    assert!(shards > 0, "zero shards, which Campaign::new rejects");
    assert!(
        s < shards,
        "shard {s} of {shards}: the runner only asks for s < shards"
    );
    let q = sessions / shards;
    let r = sessions % shards;
    let lo = s * q + s.min(r);
    let hi = lo + q + usize::from(s < r);
    lo..hi
}

/// Execution parameters of one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPlan {
    /// Campaign name; part of the checkpoint identity.
    pub name: String,
    /// Root seed: session `i` runs with `stream_seed(root_seed, i)`.
    pub root_seed: u64,
    /// Total sessions in the campaign.
    pub sessions: usize,
    /// Shard count. Part of the campaign identity: per-shard Welford
    /// aggregates depend on the partition, so resuming under a different
    /// shard count is refused rather than silently mixed.
    pub shards: usize,
    /// Worker threads; `None` defers to `MEE_SWEEP_THREADS` / host
    /// parallelism exactly like [`mee_sweep::Sweep::from_env`].
    pub threads: Option<usize>,
    /// Checkpoint directory; `None` disables checkpointing (the campaign
    /// still runs, aggregates in memory only).
    pub dir: Option<PathBuf>,
    /// When true, existing valid checkpoints in `dir` are loaded and only
    /// missing shards execute. When false, a non-empty `dir` is an error —
    /// stale state must never be mixed in accidentally.
    pub resume: bool,
    /// Per-attempt watchdog timeout; `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// Crash injection for tests and the ci.sh kill/resume smoke: after
    /// this many *freshly written* checkpoints the campaign aborts with
    /// [`CampaignError::Aborted`], leaving the checkpoint directory
    /// exactly as a `kill -9` at that instant would.
    pub abort_after: Option<usize>,
}

impl CampaignPlan {
    /// A plan with defaults: no watchdog, no checkpoint dir,
    /// environment-default threads.
    pub fn new(name: impl Into<String>, root_seed: u64, sessions: usize, shards: usize) -> Self {
        CampaignPlan {
            name: name.into(),
            root_seed,
            sessions,
            shards,
            threads: None,
            dir: None,
            resume: false,
            watchdog: None,
            abort_after: None,
        }
    }

    /// Sets the checkpoint directory.
    #[must_use]
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Enables resuming from existing checkpoints in the directory.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Pins the worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Enables the per-attempt watchdog.
    #[must_use]
    pub fn watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog = Some(timeout);
        self
    }

    /// Enables crash injection after `n` fresh checkpoints.
    #[must_use]
    pub fn abort_after(mut self, n: usize) -> Self {
        self.abort_after = Some(n);
        self
    }

    /// The session range of shard `s` under this plan.
    pub(crate) fn shard_range(&self, s: usize) -> std::ops::Range<usize> {
        shard_range(self.sessions, self.shards, s)
    }
}

/// Per-attempt context handed to the session body: which shard and attempt
/// is executing, and the cooperative cancellation signal (the attempt's
/// watchdog deadline, or the campaign stopping).
///
/// Long-running session bodies should poll [`ShardCtx::is_cancelled`] at
/// convenient points (between probe batches, between sessions) and return
/// early; the runner discards any result of a cancelled attempt either
/// way, so ignoring the flag only wastes worker time, never correctness.
#[derive(Debug, Clone)]
pub struct ShardCtx {
    /// The shard being executed.
    pub shard: usize,
    /// 0-based attempt number (0 = first try).
    pub attempt: u32,
    stop: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl ShardCtx {
    pub(crate) fn new(
        shard: usize,
        attempt: u32,
        stop: Arc<AtomicBool>,
        deadline: Option<Instant>,
    ) -> Self {
        ShardCtx {
            shard,
            attempt,
            stop,
            deadline,
        }
    }

    /// True once this attempt's watchdog deadline has passed (or the
    /// campaign is stopping); the body should return promptly.
    pub fn is_cancelled(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Why a shard ended up quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// An attempt panicked; the enriched payload is preserved. A panic is
    /// never retried.
    Panicked(String),
    /// An attempt returned a session error. An error is never retried.
    Failed(String),
    /// Every attempt of the timeout budget exceeded the watchdog.
    Hung,
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Panicked(msg) => write!(f, "panicked: {msg}"),
            QuarantineReason::Failed(msg) => write!(f, "failed: {msg}"),
            QuarantineReason::Hung => write!(f, "hung: watchdog timeout on every attempt"),
        }
    }
}

/// One quarantined shard: exactly which sessions are missing and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedShard {
    /// The shard index.
    pub shard: usize,
    /// First missing session index (inclusive).
    pub lo: usize,
    /// One past the last missing session index.
    pub hi: usize,
    /// Attempts consumed: 1 for a panic or session error, the whole
    /// timeout budget for a hung shard.
    pub attempts: u32,
    /// Why the shard was given up on.
    pub reason: QuarantineReason,
}

/// The result of a finished campaign (including gracefully-degraded ones —
/// check [`CampaignOutcome::is_complete`]).
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Campaign name (from the plan).
    pub name: String,
    /// Root seed (for replay recipes).
    pub root_seed: u64,
    /// Merged aggregate of every *completed* shard, in shard order.
    pub aggregate: CampaignAggregate,
    /// Completed shard indices, ascending.
    pub completed: Vec<usize>,
    /// The subset of `completed` that was restored from checkpoints.
    pub resumed: Vec<usize>,
    /// Shards excluded from the aggregate, with exact missing ranges.
    pub quarantined: Vec<QuarantinedShard>,
    /// The deterministic phase/fault event log.
    pub log: CampaignLog,
    /// Host wall-clock spans (shard bodies, checkpoint I/O) — measurement
    /// output, never part of the deterministic aggregate.
    pub host: HostProfile,
}

impl CampaignOutcome {
    /// True when every shard completed (nothing quarantined).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Every session index excluded from the aggregate, ascending.
    pub fn missing_sessions(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.quarantined.iter().flat_map(|q| q.lo..q.hi).collect();
        out.sort_unstable();
        out
    }

    /// The exact quarantine report: one line per quarantined shard naming
    /// the missing session range, the per-session seed recipe, the attempt
    /// count, and the terminal fault. Empty string when complete.
    pub fn quarantine_report(&self) -> String {
        let mut out = String::new();
        for q in &self.quarantined {
            out.push_str(&format!(
                "quarantined shard {}: sessions {}..{} missing after {} attempt(s): {} | \
                 replay: session i reruns standalone with seed stream_seed({}, i)\n",
                q.shard, q.lo, q.hi, q.attempts, q.reason, self.root_seed
            ));
        }
        out
    }
}

/// A campaign that could not produce an outcome at all (as opposed to a
/// degraded-but-finished one, which is an `Ok` with quarantine entries).
#[derive(Debug)]
pub enum CampaignError {
    /// The plan is internally inconsistent (zero shards, bad series names,
    /// crash injection without a checkpoint dir, …).
    InvalidPlan(String),
    /// A checkpoint could not be written or read — including the loud
    /// corrupt-checkpoint and campaign-mismatch cases.
    Checkpoint(CheckpointError),
    /// Filesystem failure outside checkpoint files themselves.
    Io {
        /// The path being accessed.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The checkpoint directory already holds shard files but
    /// [`CampaignPlan::resume`] is off.
    DirNotEmpty {
        /// The directory.
        dir: PathBuf,
        /// How many shard checkpoints it holds.
        found: usize,
    },
    /// A malformed `MEE_SWEEP_THREADS` (surfaced as a value so binaries
    /// exit with a usage message).
    Threads(EnvKnobError),
    /// Injected crash (`abort_after`) fired: the process state is exactly
    /// a kill after `checkpointed` shards were durably written.
    Aborted {
        /// Fresh checkpoints written before the abort.
        checkpointed: usize,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::InvalidPlan(msg) => write!(f, "invalid campaign plan: {msg}"),
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::Io { path, source } => {
                write!(f, "campaign I/O error at {}: {source}", path.display())
            }
            CampaignError::DirNotEmpty { dir, found } => write!(
                f,
                "checkpoint directory {} already holds {found} shard checkpoint(s); pass \
                 resume to continue that campaign or point at a fresh directory",
                dir.display()
            ),
            CampaignError::Threads(e) => write!(f, "{e}"),
            CampaignError::Aborted { checkpointed } => write!(
                f,
                "campaign aborted by crash injection after {checkpointed} checkpointed \
                 shard(s); rerun with resume to continue"
            ),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Checkpoint(e) => Some(e),
            CampaignError::Io { source, .. } => Some(source),
            CampaignError::Threads(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

/// A fully-specified campaign: plan, series names, and the body-version
/// tag that invalidates old checkpoints when the session computation
/// changes.
#[derive(Debug, Clone)]
pub struct Campaign {
    plan: CampaignPlan,
    series: Vec<String>,
    body_version: String,
}

impl Campaign {
    /// Validates and builds a campaign.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidPlan`] for zero shards, an empty or
    /// whitespace-bearing series name, duplicate series names, or crash
    /// injection without a checkpoint directory.
    pub fn new(
        plan: CampaignPlan,
        series: Vec<String>,
        body_version: impl Into<String>,
    ) -> Result<Self, CampaignError> {
        let invalid = |msg: String| Err(CampaignError::InvalidPlan(msg));
        if plan.shards == 0 {
            return invalid("a campaign needs at least one shard".into());
        }
        if series.is_empty() {
            return invalid("a campaign needs at least one series".into());
        }
        for (i, name) in series.iter().enumerate() {
            if name.is_empty() || name.chars().any(char::is_whitespace) {
                return invalid(format!(
                    "series {i} has an empty or whitespace name {name:?}"
                ));
            }
        }
        let mut sorted = series.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != series.len() {
            return invalid("duplicate series names".into());
        }
        if plan.abort_after.is_some() && plan.dir.is_none() {
            return invalid("crash injection (abort_after) requires a checkpoint dir".into());
        }
        if plan.resume && plan.dir.is_none() {
            return invalid("resume requires a checkpoint dir".into());
        }
        if let Some(t) = plan.threads {
            if t == 0 {
                return invalid("a campaign needs at least one worker thread".into());
            }
        }
        Ok(Campaign {
            plan,
            series,
            body_version: body_version.into(),
        })
    }

    /// The campaign's plan.
    pub fn plan(&self) -> &CampaignPlan {
        &self.plan
    }

    /// The campaign's series names, in order.
    pub fn series(&self) -> &[String] {
        &self.series
    }

    /// The checkpoint identity (fingerprint input) of this campaign.
    pub fn identity(&self) -> CampaignIdentity {
        CampaignIdentity {
            name: self.plan.name.clone(),
            root_seed: self.plan.root_seed,
            sessions: self.plan.sessions,
            shards: self.plan.shards,
            series: self.series.clone(),
            body_version: self.body_version.clone(),
        }
    }

    /// Runs the campaign: executes (or resumes) every shard, aggregates in
    /// shard order, and returns the outcome — including gracefully
    /// degraded outcomes with quarantined shards (`Ok`, but
    /// [`CampaignOutcome::is_complete`] is false).
    ///
    /// `body` runs once per session with that session's
    /// [`SessionSpec`] (seed = `stream_seed(root, index)`) and the
    /// [`ShardCtx`]; it returns one `f64` per series, in series order, or
    /// a session-error string. It must be a pure function of the spec for
    /// the determinism guarantees to hold.
    ///
    /// # Errors
    ///
    /// See [`CampaignError`]; notably a corrupt checkpoint is an error
    /// here, *not* a silent recompute.
    pub fn run<F>(&self, body: F) -> Result<CampaignOutcome, CampaignError>
    where
        F: Fn(SessionSpec, &ShardCtx) -> Result<Vec<f64>, String> + Sync,
    {
        runner::run(self, &body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_the_session_space() {
        for (sessions, shards) in [(16, 4), (17, 4), (3, 8), (0, 2), (100, 7), (5, 5)] {
            let mut covered = Vec::new();
            for s in 0..shards {
                let r = shard_range(sessions, shards, s);
                assert!(r.start <= r.end);
                covered.extend(r);
            }
            assert_eq!(
                covered,
                (0..sessions).collect::<Vec<_>>(),
                "{sessions}/{shards}"
            );
        }
    }

    #[test]
    fn balanced_partition_spreads_the_remainder() {
        // 10 sessions over 4 shards: 3,3,2,2.
        let sizes: Vec<usize> = (0..4).map(|s| shard_range(10, 4, s).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let ok_series = || vec!["x".to_owned()];
        assert!(Campaign::new(CampaignPlan::new("t", 1, 4, 0), ok_series(), "v").is_err());
        assert!(Campaign::new(CampaignPlan::new("t", 1, 4, 2), vec![], "v").is_err());
        assert!(Campaign::new(CampaignPlan::new("t", 1, 4, 2), vec!["a b".into()], "v").is_err());
        assert!(Campaign::new(
            CampaignPlan::new("t", 1, 4, 2),
            vec!["a".into(), "a".into()],
            "v"
        )
        .is_err());
        assert!(
            Campaign::new(
                CampaignPlan::new("t", 1, 4, 2).abort_after(1),
                ok_series(),
                "v"
            )
            .is_err(),
            "abort_after without dir must be rejected"
        );
        assert!(Campaign::new(CampaignPlan::new("t", 1, 4, 2), ok_series(), "v").is_ok());
    }

    #[test]
    fn env_knobs_route_through_the_strict_grammar() {
        // Unset ⇒ None; the strict-parse failure paths are covered by the
        // env_knob crate tests and the ci.sh exit-2 check (process-global
        // env vars are not toyed with here).
        assert_eq!(shards_from_env(), Ok(None));
        assert_eq!(dir_from_env(), Ok(None));
    }
}
