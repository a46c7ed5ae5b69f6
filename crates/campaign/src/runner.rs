//! The campaign execution engine: every pending shard is one item of a
//! [`mee_sweep::Sweep::run`], so campaigns and sweeps share one worker
//! pool. The worker that takes a shard owns it to the end: it runs the
//! attempts, enforces the watchdog, and writes the checkpoint. There is
//! no coordinator thread.
//!
//! Only a watchdog timeout is retried (at once, `TIMEOUT_ATTEMPTS` in all):
//! a panic or session error would repeat on any retry, so it quarantines
//! the shard on its first attempt.
//!
//! Concurrency model (and why the result is still deterministic):
//!
//! * Workers race over *shards*, but each shard's sessions fold serially in
//!   index order on the worker that owns it — so a shard aggregate is a
//!   pure function of the shard, independent of scheduling.
//! * Each shard returns its own event list and host spans; the calling
//!   thread merges them, and the shard aggregates, in ascending shard
//!   order *after* all shards resolve — so the campaign aggregate and its
//!   log are independent of completion order, thread count, and (because
//!   resumed checkpoints are byte-exact round-trips) of whether any shard
//!   was computed now or in a previous process.
//! * Faults (panics, session errors, watchdog timeouts) only ever remove a
//!   shard from the aggregate (quarantine) or, after a timeout, cause a
//!   bit-identical recompute — they cannot reorder the fold.
//!
//! Cancellation is cooperative: safe Rust cannot kill a thread, so an
//! attempt's [`ShardCtx`] reports itself cancelled once its watchdog
//! deadline passes (or the campaign stops), and an attempt that returns
//! after its deadline has its result discarded as timed out. A body that
//! never polls the flag delays its own shard but never corrupts results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mee_obs::{CampaignLog, HostProfile, ShardEvent};
use mee_sweep::Sweep;

use crate::agg::{CampaignAggregate, ShardAggregate};
use crate::checkpoint::{self, CampaignIdentity};
use crate::{
    Campaign, CampaignError, CampaignOutcome, QuarantineReason, QuarantinedShard, SessionSpec,
    ShardCtx, CHECKPOINT_LOAD_SPAN, CHECKPOINT_WRITE_SPAN, SHARD_SPAN,
};

/// Attempts a shard gets when every one of them times out; after the last
/// the shard is quarantined as hung.
const TIMEOUT_ATTEMPTS: u32 = 3;

/// How one attempt at a shard ended.
enum AttemptOutcome {
    Done(ShardAggregate),
    Panicked(String),
    Failed(String),
    Cancelled,
}

/// Runs one attempt at a shard: sessions folded strictly in index order,
/// with the cancel flag checked between sessions and a panic enriched with
/// the exact session, seed, and replay recipe (mee-spec counterexample
/// style).
fn run_attempt<F>(campaign: &Campaign, ctx: &ShardCtx, body: &F) -> AttemptOutcome
where
    F: Fn(SessionSpec, &ShardCtx) -> Result<Vec<f64>, String> + Sync,
{
    let plan = campaign.plan();
    let range = plan.shard_range(ctx.shard);
    let nseries = campaign.series().len();
    let current = std::cell::Cell::new(range.start);
    let context = |index, what: &str| {
        SessionSpec::new(plan.root_seed, index).replay_context(plan.root_seed, None, what)
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut agg = ShardAggregate::empty(ctx.shard, range.start, range.end, nseries);
        for index in range.clone() {
            if ctx.is_cancelled() {
                return AttemptOutcome::Cancelled;
            }
            current.set(index);
            match body(SessionSpec::new(plan.root_seed, index), ctx) {
                Ok(values) => agg.push_session(&values),
                Err(message) => return AttemptOutcome::Failed(context(index, &message)),
            }
        }
        AttemptOutcome::Done(agg)
    }));
    result.unwrap_or_else(|payload| {
        let message = mee_sweep::panic_message(payload.as_ref());
        AttemptOutcome::Panicked(context(current.get(), &message))
    })
}

/// How a shard resolved on its worker.
enum Resolution {
    Completed(ShardAggregate),
    Quarantined(QuarantinedShard),
    /// The campaign stopped (crash injection or a checkpoint error) before
    /// the shard resolved.
    Skipped,
    /// The shard's checkpoint could not be written.
    Error(CampaignError),
}

/// Everything one shard reports back to the calling thread, which merges
/// these in shard order.
struct ShardRun {
    events: Vec<ShardEvent>,
    host: HostProfile,
    resolution: Resolution,
}

/// What the shard workers share: the campaign, its checkpoint identity,
/// the stop flag, and the fresh-checkpoint counter that every checkpoint
/// write holds.
struct Shared<'c> {
    campaign: &'c Campaign,
    identity: CampaignIdentity,
    /// Raised by crash injection or a checkpoint error. `Relaxed` is
    /// enough: the flag publishes no other data, and the read that must
    /// not miss it (before a checkpoint write) holds the counter's mutex,
    /// as does every store.
    stop: Arc<AtomicBool>,
    fresh_checkpoints: Mutex<usize>,
}

impl Shared<'_> {
    /// Resolves one shard on the calling worker: attempts until it
    /// completes, is quarantined, or the campaign stops. Only a timed-out
    /// attempt is followed by another.
    fn run_shard<F>(&self, shard: usize, body: &F) -> ShardRun
    where
        F: Fn(SessionSpec, &ShardCtx) -> Result<Vec<f64>, String> + Sync,
    {
        let plan = self.campaign.plan();
        let mut run = ShardRun {
            events: Vec::new(),
            host: HostProfile::new(),
            resolution: Resolution::Skipped,
        };
        for attempt in 0..TIMEOUT_ATTEMPTS {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            run.events.push(ShardEvent::Started { attempt });
            let start = Instant::now();
            let deadline = plan.watchdog.map(|t| start + t);
            let ctx = ShardCtx::new(shard, attempt, self.stop.clone(), deadline);
            let outcome = run_attempt(self.campaign, &ctx, body);
            run.host.record(SHARD_SPAN, start.elapsed());
            let reason = match outcome {
                // Late results are stale whatever they hold.
                _ if deadline.is_some_and(|d| Instant::now() >= d) => {
                    run.events.push(ShardEvent::TimedOut { attempt });
                    if attempt + 1 < TIMEOUT_ATTEMPTS {
                        continue;
                    }
                    QuarantineReason::Hung
                }
                AttemptOutcome::Cancelled => break,
                AttemptOutcome::Done(agg) => {
                    run.events.push(ShardEvent::Completed {
                        attempt,
                        sessions: agg.sessions(),
                    });
                    run.resolution = match &plan.dir {
                        None => Resolution::Completed(agg),
                        Some(dir) => self.checkpoint(dir, agg, &mut run),
                    };
                    break;
                }
                AttemptOutcome::Panicked(message) => {
                    run.events.push(ShardEvent::Panicked {
                        attempt,
                        message: message.clone(),
                    });
                    QuarantineReason::Panicked(message)
                }
                AttemptOutcome::Failed(message) => {
                    run.events.push(ShardEvent::Failed {
                        attempt,
                        message: message.clone(),
                    });
                    QuarantineReason::Failed(message)
                }
            };
            run.events.push(ShardEvent::Quarantined {
                attempts: attempt + 1,
                reason: reason.to_string(),
            });
            let range = plan.shard_range(shard);
            run.resolution = Resolution::Quarantined(QuarantinedShard {
                shard,
                lo: range.start,
                hi: range.end,
                attempts: attempt + 1,
                reason,
            });
            break;
        }
        run
    }

    /// Writes a completed shard's checkpoint under the fresh-checkpoint
    /// counter, so no write lands once the campaign has stopped: crash
    /// injection leaves exactly `abort_after` fresh files, and the first
    /// checkpoint error is the last write.
    fn checkpoint(&self, dir: &Path, agg: ShardAggregate, run: &mut ShardRun) -> Resolution {
        let mut fresh = self
            .fresh_checkpoints
            .lock()
            .expect("checkpoint counter poisoned");
        if self.stop.load(Ordering::Relaxed) {
            return Resolution::Skipped;
        }
        let start = Instant::now();
        if let Err(e) = checkpoint::write(dir, &self.identity, &agg) {
            self.stop.store(true, Ordering::Relaxed);
            return Resolution::Error(e.into());
        }
        run.host.record(CHECKPOINT_WRITE_SPAN, start.elapsed());
        run.events.push(ShardEvent::Checkpointed);
        *fresh += 1;
        if self.campaign.plan().abort_after == Some(*fresh) {
            self.stop.store(true, Ordering::Relaxed);
        }
        Resolution::Completed(agg)
    }
}

/// Counts existing shard checkpoints in `dir` (for the `DirNotEmpty`
/// guard).
fn existing_checkpoints(dir: &Path, shards: usize) -> usize {
    (0..shards)
        .filter(|&s| dir.join(checkpoint::shard_file_name(s)).exists())
        .count()
}

pub(crate) fn run<F>(campaign: &Campaign, body: &F) -> Result<CampaignOutcome, CampaignError>
where
    F: Fn(SessionSpec, &ShardCtx) -> Result<Vec<f64>, String> + Sync,
{
    let plan = campaign.plan();
    let sweep = Sweep::from_env()
        .map_err(CampaignError::Threads)?
        .threads(plan.threads);
    let identity = campaign.identity();
    let mut log = CampaignLog::new();
    let mut host = HostProfile::new();
    let mut results: Vec<Option<ShardAggregate>> = vec![None; plan.shards];
    let mut resumed: Vec<usize> = Vec::new();

    // ---- Checkpoint directory: guard, then resume pre-pass. ----
    if let Some(dir) = &plan.dir {
        std::fs::create_dir_all(dir).map_err(|source| CampaignError::Io {
            path: dir.clone(),
            source,
        })?;
        let found = existing_checkpoints(dir, plan.shards);
        if found > 0 && !plan.resume {
            return Err(CampaignError::DirNotEmpty {
                dir: dir.clone(),
                found,
            });
        }
        if plan.resume {
            for (shard, slot) in results.iter_mut().enumerate() {
                let start = Instant::now();
                // A corrupt or mismatched checkpoint is a loud error here —
                // never a silent recompute.
                let loaded = checkpoint::load(dir, &identity, shard, plan.shard_range(shard))?;
                host.record(CHECKPOINT_LOAD_SPAN, start.elapsed());
                if let Some(agg) = loaded {
                    log.record(shard, ShardEvent::Resumed);
                    *slot = Some(agg);
                    resumed.push(shard);
                }
            }
        }
    }

    // ---- Execute the missing shards, one sweep item each. ----
    let pending: Vec<usize> = (0..plan.shards).filter(|&s| results[s].is_none()).collect();
    let shared = Shared {
        campaign,
        identity,
        stop: Arc::new(AtomicBool::new(false)),
        fresh_checkpoints: Mutex::new(0),
    };
    let runs = sweep.run(&pending, |_, &shard| shared.run_shard(shard, body));

    // ---- Merge in ascending shard order ⇒ deterministic log and fold. ----
    let mut quarantined = Vec::new();
    let mut error = None;
    for (&shard, run) in pending.iter().zip(runs) {
        for event in run.events {
            log.record(shard, event);
        }
        host.merge(&run.host);
        match run.resolution {
            Resolution::Completed(agg) => results[shard] = Some(agg),
            Resolution::Quarantined(q) => quarantined.push(q),
            Resolution::Skipped => {}
            Resolution::Error(e) => {
                error.get_or_insert(e);
            }
        }
    }
    if let Some(e) = error {
        return Err(e);
    }
    if shared.stop.load(Ordering::Relaxed) {
        let checkpointed = shared
            .fresh_checkpoints
            .into_inner()
            .expect("checkpoint counter poisoned");
        return Err(CampaignError::Aborted { checkpointed });
    }

    let completed: Vec<usize> = (0..plan.shards).filter(|&s| results[s].is_some()).collect();
    let shard_aggs: Vec<ShardAggregate> = results.into_iter().flatten().collect();
    let aggregate = CampaignAggregate::merge_shards(campaign.series(), &shard_aggs);
    Ok(CampaignOutcome {
        name: plan.name.clone(),
        root_seed: plan.root_seed,
        aggregate,
        completed,
        resumed,
        quarantined,
        log,
        host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CampaignPlan, CheckpointError};
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mee_campaign_run_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn series() -> Vec<String> {
        vec!["lat".to_owned(), "hit".to_owned()]
    }

    /// A deterministic pure-function body: two series derived from the
    /// session seed alone (never from attempt or shard), as the
    /// determinism contract requires.
    fn clean_body(spec: SessionSpec, _ctx: &ShardCtx) -> Result<Vec<f64>, String> {
        let x = (spec.seed >> 11) as f64 / (1u64 << 53) as f64;
        Ok(vec![x, spec.index as f64 + x])
    }

    fn campaign(plan: CampaignPlan) -> Campaign {
        Campaign::new(plan, series(), "test/v1").unwrap()
    }

    #[test]
    fn outcome_is_bit_identical_at_any_thread_count() {
        let mut renders = Vec::new();
        for threads in [1, 2, 8] {
            let c = campaign(CampaignPlan::new("t/threads", 2019, 23, 5).threads(threads));
            let out = c.run(clean_body).unwrap();
            assert!(out.is_complete());
            assert_eq!(out.aggregate.sessions, 23);
            assert_eq!(out.completed, vec![0, 1, 2, 3, 4]);
            renders.push(out.aggregate.render());
        }
        assert_eq!(renders[0], renders[1]);
        assert_eq!(renders[0], renders[2]);

        // With faults the event log, too, is a pure function of the
        // campaign: shard 1 always panics and shard 3 always fails, and
        // each is quarantined after its one attempt.
        let mut faulted = Vec::new();
        for threads in [1, 2, 8] {
            let c = campaign(CampaignPlan::new("t/threads", 2019, 23, 5).threads(threads));
            let out = c
                .run(|spec, ctx| {
                    if ctx.shard == 1 {
                        panic!("deterministic fault");
                    }
                    if ctx.shard == 3 {
                        return Err("always fails".into());
                    }
                    clean_body(spec, ctx)
                })
                .unwrap();
            assert_eq!(out.completed, vec![0, 2, 4]);
            let quarantined: Vec<(usize, u32)> = out
                .quarantined
                .iter()
                .map(|q| (q.shard, q.attempts))
                .collect();
            assert_eq!(quarantined, vec![(1, 1), (3, 1)]);
            faulted.push((out.aggregate.render(), out.log.render()));
        }
        assert_eq!(faulted[0], faulted[1]);
        assert_eq!(faulted[0], faulted[2]);
    }

    #[test]
    fn kill_and_resume_is_bit_identical_to_uninterrupted() {
        let ref_dir = tmp_dir("ref");
        let kill_dir = tmp_dir("kill");

        // Uninterrupted reference at 2 threads.
        let c = campaign(
            CampaignPlan::new("t/resume", 2019, 17, 6)
                .threads(2)
                .dir(&ref_dir),
        );
        let reference = c.run(clean_body).unwrap();
        assert!(reference.is_complete());

        // Same campaign, crash injected after 2 durable checkpoints, with
        // enough workers that several shards finish at once: no writer may
        // overshoot the injection point.
        let c = campaign(
            CampaignPlan::new("t/resume", 2019, 17, 6)
                .threads(4)
                .dir(&kill_dir)
                .abort_after(2),
        );
        match c.run(clean_body) {
            Err(CampaignError::Aborted { checkpointed }) => {
                assert_eq!(checkpointed, 2);
                assert_eq!(existing_checkpoints(&kill_dir, 6), checkpointed);
            }
            other => panic!("expected injected abort, got {other:?}"),
        }

        // Resume at a *different* thread count.
        let c = campaign(
            CampaignPlan::new("t/resume", 2019, 17, 6)
                .threads(7)
                .dir(&kill_dir)
                .resume(true),
        );
        let resumed = c.run(clean_body).unwrap();
        assert!(resumed.is_complete());
        assert_eq!(
            resumed.resumed.len(),
            2,
            "exactly the checkpointed shards resume"
        );
        assert_eq!(resumed.log.count(|e| matches!(e, ShardEvent::Resumed)), 2);

        // Byte-identical aggregate…
        assert_eq!(reference.aggregate.render(), resumed.aggregate.render());
        // …and byte-identical checkpoint files shard by shard.
        for s in 0..6 {
            let name = checkpoint::shard_file_name(s);
            let a = std::fs::read(ref_dir.join(&name)).unwrap();
            let b = std::fs::read(kill_dir.join(&name)).unwrap();
            assert_eq!(a, b, "shard {s} checkpoint differs");
        }

        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&kill_dir);
    }

    #[test]
    fn panicking_shard_is_quarantined_and_the_rest_completes() {
        let c = campaign(CampaignPlan::new("t/panic", 7, 12, 4).threads(3));
        let bad = c.plan().shard_range(2);
        let out = c
            .run(|spec, _ctx| {
                if (bad.start..bad.end).contains(&spec.index) {
                    panic!("synthetic fault at session {}", spec.index);
                }
                clean_body(spec, _ctx)
            })
            .unwrap();
        assert!(!out.is_complete());
        assert_eq!(out.completed, vec![0, 1, 3]);
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert_eq!(
            (q.shard, q.lo, q.hi, q.attempts),
            (2, bad.start, bad.end, 1)
        );
        match &q.reason {
            QuarantineReason::Panicked(msg) => {
                assert!(msg.contains("synthetic fault"), "{msg}");
                assert!(msg.contains("seed 0x"), "{msg}");
                assert!(msg.contains("replay: rerun session"), "{msg}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(
            out.missing_sessions(),
            (bad.start..bad.end).collect::<Vec<_>>()
        );
        assert_eq!(out.aggregate.sessions, (12 - (bad.end - bad.start)) as u64);
        let report = out.quarantine_report();
        assert!(report.contains("quarantined shard 2"), "{report}");
        assert!(report.contains("stream_seed(7, i)"), "{report}");
    }

    #[test]
    fn panic_on_the_first_attempt_is_quarantined_without_a_second() {
        // The body would succeed on attempt 1, but a panic is not retried.
        let c = campaign(CampaignPlan::new("t/flaky", 2019, 10, 3).threads(2));
        let out = c
            .run(|spec, ctx| {
                if ctx.shard == 1 && ctx.attempt == 0 {
                    panic!("first-attempt fault");
                }
                clean_body(spec, ctx)
            })
            .unwrap();
        assert_eq!(out.completed, vec![0, 2]);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(
            (out.quarantined[0].shard, out.quarantined[0].attempts),
            (1, 1)
        );
        let log = out.log.shard(1);
        assert_eq!(log.len(), 3, "{log:?}");
        assert_eq!(log[0], ShardEvent::Started { attempt: 0 });
        assert!(matches!(log[1], ShardEvent::Panicked { attempt: 0, .. }));
        assert!(matches!(
            log[2],
            ShardEvent::Quarantined { attempts: 1, .. }
        ));
        assert_eq!(
            out.log
                .count(|e| matches!(e, ShardEvent::Started { attempt: 1 })),
            0
        );
    }

    #[test]
    fn failing_session_is_quarantined_after_one_attempt_with_recipe() {
        let c = campaign(CampaignPlan::new("t/fail", 11, 8, 2).threads(2));
        let out = c
            .run(|spec, ctx| {
                if ctx.shard == 0 && spec.index == 1 {
                    return Err("detector refused to converge".into());
                }
                clean_body(spec, ctx)
            })
            .unwrap();
        assert!(!out.is_complete());
        let q = &out.quarantined[0];
        assert_eq!(q.attempts, 1);
        match &q.reason {
            QuarantineReason::Failed(msg) => {
                assert!(msg.contains("session 1"), "{msg}");
                assert!(msg.contains("detector refused to converge"), "{msg}");
                assert!(msg.contains("stream_seed(11, 1)"), "{msg}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn hung_shard_is_timed_out_and_quarantined() {
        let c = campaign(
            CampaignPlan::new("t/hang", 3, 6, 3)
                .threads(2)
                .watchdog(Duration::from_millis(40)),
        );
        let out = c
            .run(|spec, ctx| {
                if ctx.shard == 1 {
                    // Cooperative hang: spins until the watchdog cancels.
                    while !ctx.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    return Err("unreachable: result is stale once cancelled".into());
                }
                clean_body(spec, ctx)
            })
            .unwrap();
        assert!(!out.is_complete());
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].shard, 1);
        assert_eq!(out.quarantined[0].reason, QuarantineReason::Hung);
        assert_eq!(out.quarantined[0].attempts, TIMEOUT_ATTEMPTS);
        assert_eq!(
            out.log.count(|e| matches!(e, ShardEvent::TimedOut { .. })),
            TIMEOUT_ATTEMPTS as usize
        );
        assert_eq!(out.completed, vec![0, 2]);
    }

    #[test]
    fn late_result_past_the_watchdog_is_discarded_as_hung() {
        let c = campaign(
            CampaignPlan::new("t/late", 3, 2, 2)
                .threads(2)
                .watchdog(Duration::from_millis(20)),
        );
        let out = c
            .run(|spec, ctx| {
                if ctx.shard == 1 {
                    // Ignores the cancel flag and returns Ok long after
                    // the deadline.
                    std::thread::sleep(Duration::from_millis(120));
                }
                clean_body(spec, ctx)
            })
            .unwrap();
        assert_eq!(out.completed, vec![0]);
        assert_eq!(out.aggregate.sessions, 1);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].shard, 1);
        assert_eq!(out.quarantined[0].reason, QuarantineReason::Hung);
        assert_eq!(
            out.log.shard(1),
            [
                ShardEvent::Started { attempt: 0 },
                ShardEvent::TimedOut { attempt: 0 },
                ShardEvent::Started { attempt: 1 },
                ShardEvent::TimedOut { attempt: 1 },
                ShardEvent::Started { attempt: 2 },
                ShardEvent::TimedOut { attempt: 2 },
                ShardEvent::Quarantined {
                    attempts: 3,
                    reason: QuarantineReason::Hung.to_string()
                },
            ]
        );
    }

    #[test]
    fn flaky_hang_is_retried_and_the_campaign_completes() {
        let c = campaign(
            CampaignPlan::new("t/flakyhang", 5, 6, 2)
                .threads(2)
                .watchdog(Duration::from_millis(40)),
        );
        let out = c
            .run(|spec, ctx| {
                if ctx.shard == 0 && ctx.attempt == 0 {
                    while !ctx.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    return Err("stale".into());
                }
                clean_body(spec, ctx)
            })
            .unwrap();
        assert!(out.is_complete(), "report: {}", out.quarantine_report());
        assert_eq!(
            out.log.shard(0),
            [
                ShardEvent::Started { attempt: 0 },
                ShardEvent::TimedOut { attempt: 0 },
                ShardEvent::Started { attempt: 1 },
                ShardEvent::Completed {
                    attempt: 1,
                    sessions: 3
                },
            ]
        );
    }

    #[test]
    fn non_empty_dir_without_resume_is_refused() {
        let dir = tmp_dir("noresume");
        let plan = || CampaignPlan::new("t/dir", 1, 8, 4).threads(2).dir(&dir);
        campaign(plan()).run(clean_body).unwrap();
        match campaign(plan()).run(clean_body) {
            Err(CampaignError::DirNotEmpty { found, .. }) => assert_eq!(found, 4),
            other => panic!("expected DirNotEmpty, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_on_resume_is_a_loud_error_not_a_recompute() {
        let dir = tmp_dir("corrupt_resume");
        let plan = || CampaignPlan::new("t/corrupt", 1, 8, 4).threads(2).dir(&dir);
        campaign(plan()).run(clean_body).unwrap();

        // Flip one byte in shard 2's checkpoint.
        let victim = dir.join(checkpoint::shard_file_name(2));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();

        match campaign(plan().resume(true)).run(clean_body) {
            Err(CampaignError::Checkpoint(e @ CheckpointError::Corrupt { .. })) => {
                let msg = e.to_string();
                assert!(msg.contains("replay:"), "{msg}");
            }
            other => panic!("expected loud corruption error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn host_profile_records_shard_and_checkpoint_spans() {
        let dir = tmp_dir("spans");
        let c = campaign(CampaignPlan::new("t/spans", 1, 8, 4).threads(2).dir(&dir));
        let out = c.run(clean_body).unwrap();
        assert_eq!(out.host.span(SHARD_SPAN).unwrap().count, 4);
        assert_eq!(out.host.span(CHECKPOINT_WRITE_SPAN).unwrap().count, 4);
        assert_eq!(out.log.count(|e| matches!(e, ShardEvent::Checkpointed)), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn more_shards_than_sessions_still_partitions_cleanly() {
        let c = campaign(CampaignPlan::new("t/tiny", 1, 2, 5).threads(3));
        let out = c.run(clean_body).unwrap();
        assert!(out.is_complete());
        assert_eq!(out.aggregate.sessions, 2);
        assert_eq!(out.completed.len(), 5, "empty shards still complete");
    }
}
