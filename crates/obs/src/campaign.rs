//! Campaign-level observability: the phase/fault event log of a sharded
//! campaign run.
//!
//! A campaign is a *host-level* orchestration — shards start, checkpoint,
//! panic, fail, time out (and only then start again), get quarantined.
//! None of that happens in simulated time, so these events deliberately
//! do **not** reuse the sim-cycle [`Event`](crate::Event) taxonomy; they
//! are their own typed log, keyed by shard so rendering is deterministic
//! (shard order, then occurrence order within the shard) even though
//! shards execute concurrently.
//!
//! Host *durations* of campaign work (shard bodies, checkpoint I/O) go
//! through [`HostProfile`](crate::HostProfile) as usual; this module only
//! records *what happened*, which — unlike wall-clock — is deterministic
//! for deterministic shard bodies and therefore assertable in tests.

use std::collections::BTreeMap;
use std::fmt;

/// One lifecycle event of one shard of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardEvent {
    /// An attempt at the shard began executing on a worker.
    Started {
        /// 0-based attempt number (0 = first try).
        attempt: u32,
    },
    /// The shard finished cleanly and its aggregate was accepted.
    Completed {
        /// The attempt that succeeded.
        attempt: u32,
        /// Sessions the shard covered.
        sessions: u64,
    },
    /// The shard's aggregate was atomically checkpointed to disk.
    Checkpointed,
    /// The shard was restored from an existing checkpoint instead of
    /// re-executing (crash-resume path).
    Resumed,
    /// The shard's body panicked; the payload is preserved.
    Panicked {
        /// The attempt that panicked.
        attempt: u32,
        /// The (string-rendered) panic payload.
        message: String,
    },
    /// The shard's body returned a session error.
    Failed {
        /// The attempt that failed.
        attempt: u32,
        /// The session error, rendered.
        message: String,
    },
    /// The watchdog timed the attempt out and cancelled it.
    TimedOut {
        /// The attempt that was abandoned.
        attempt: u32,
    },
    /// The shard is given up on (after a panic or error at once, after a
    /// timeout once the timeout budget is spent); it is excluded from the
    /// aggregate and reported in the quarantine list.
    Quarantined {
        /// Total attempts consumed (including the first).
        attempts: u32,
        /// Why the final attempt was rejected.
        reason: String,
    },
}

impl fmt::Display for ShardEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardEvent::Started { attempt } => write!(f, "started attempt={attempt}"),
            ShardEvent::Completed { attempt, sessions } => {
                write!(f, "completed attempt={attempt} sessions={sessions}")
            }
            ShardEvent::Checkpointed => write!(f, "checkpointed"),
            ShardEvent::Resumed => write!(f, "resumed-from-checkpoint"),
            ShardEvent::Panicked { attempt, message } => {
                write!(f, "panicked attempt={attempt}: {message}")
            }
            ShardEvent::Failed { attempt, message } => {
                write!(f, "failed attempt={attempt}: {message}")
            }
            ShardEvent::TimedOut { attempt } => write!(f, "timed-out attempt={attempt}"),
            ShardEvent::Quarantined { attempts, reason } => {
                write!(f, "quarantined attempts={attempts}: {reason}")
            }
        }
    }
}

/// The per-shard event log of one campaign run.
///
/// Each shard's events are collected on the worker that owns the shard and
/// appended by the calling thread once every shard has resolved, so
/// within a shard the order is exactly occurrence order; across shards the
/// log imposes shard-index order, which makes [`CampaignLog::render`]
/// deterministic for deterministic shard bodies regardless of worker
/// scheduling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignLog {
    shards: BTreeMap<usize, Vec<ShardEvent>>,
}

impl CampaignLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `event` to `shard`'s history.
    pub fn record(&mut self, shard: usize, event: ShardEvent) {
        self.shards.entry(shard).or_default().push(event);
    }

    /// The event history of one shard (empty slice if none recorded).
    pub fn shard(&self, shard: usize) -> &[ShardEvent] {
        self.shards.get(&shard).map_or(&[], Vec::as_slice)
    }

    /// Iterates `(shard, events)` in shard order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[ShardEvent])> {
        self.shards.iter().map(|(&s, evs)| (s, evs.as_slice()))
    }

    /// How many events match `pred` across all shards.
    pub fn count(&self, pred: impl Fn(&ShardEvent) -> bool) -> usize {
        self.shards.values().flatten().filter(|e| pred(e)).count()
    }

    /// Renders the whole log, one `shard <i>: <event>` line per event, in
    /// shard order then occurrence order — byte-identical across runs when
    /// the shard outcomes are deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (shard, events) in self.iter() {
            for e in events {
                out.push_str(&format!("shard {shard}: {e}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_orders_by_shard_then_occurrence() {
        let mut log = CampaignLog::new();
        log.record(2, ShardEvent::Started { attempt: 0 });
        log.record(0, ShardEvent::Started { attempt: 0 });
        log.record(
            2,
            ShardEvent::Completed {
                attempt: 0,
                sessions: 4,
            },
        );
        log.record(
            0,
            ShardEvent::Panicked {
                attempt: 0,
                message: "boom".into(),
            },
        );
        let rendered = log.render();
        let expected = "shard 0: started attempt=0\n\
                        shard 0: panicked attempt=0: boom\n\
                        shard 2: started attempt=0\n\
                        shard 2: completed attempt=0 sessions=4\n";
        assert_eq!(rendered, expected);
    }

    #[test]
    fn count_and_shard_accessors() {
        let mut log = CampaignLog::new();
        log.record(1, ShardEvent::TimedOut { attempt: 0 });
        log.record(
            1,
            ShardEvent::Quarantined {
                attempts: 2,
                reason: "hung".into(),
            },
        );
        assert_eq!(log.count(|e| matches!(e, ShardEvent::TimedOut { .. })), 1);
        assert_eq!(log.shard(1).len(), 2);
        assert!(log.shard(0).is_empty());
    }

    #[test]
    fn display_lines_are_single_line() {
        let events = [
            ShardEvent::Checkpointed,
            ShardEvent::Resumed,
            ShardEvent::Failed {
                attempt: 3,
                message: "no such process".into(),
            },
        ];
        for e in &events {
            assert!(!e.to_string().contains('\n'));
        }
    }
}
