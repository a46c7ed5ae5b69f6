//! The three workloads, their seed-derived op lists, and the pass that runs
//! one op list end to end.
//!
//! Every workload is single-threaded and closed-loop: the next op starts
//! when the previous one returns. A pass rebuilds everything the op list
//! runs on, so every pass of a run does bit-identical simulated work.

use std::hint::black_box;
use std::time::Instant;

use mee_attack::channel::{coding, random_bits, ChannelConfig, Session};
use mee_attack::experiments::session_fault_targets;
use mee_attack::setup::AttackSetup;
use mee_faults::{FaultInjector, FaultIntensity, FaultPlan};
use mee_machine::CoreId;
use mee_rng::stream_seed;
use mee_types::{Cycles, ModelError};

use crate::stats::{min_samples_for, Estimator, Fnv64};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Each op is one whole session: machine build, establishment with
    /// [`ChannelConfig::default`], and a 64-bit transmission.
    Session,
    /// Set-up establishes one channel; each op sends 1024 bits on it.
    Transmit,
    /// Set-up as for `Transmit`; each op is a 1024-bit robust transmission
    /// under a heavy seed-derived fault plan.
    Hostile,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Session, Workload::Transmit, Workload::Hostile];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Session => "session",
            Workload::Transmit => "transmit",
            Workload::Hostile => "hostile",
        }
    }

    /// Ops in one pass. At least 100, so ten samples lie beyond the p90,
    /// and few enough that a run makes many passes (see
    /// [`Self::estimator`]).
    /// Sessions need more: one session's establishment work varies by
    /// about ±45% with its machine seed, so the list's total work varies
    /// from run seed to run seed by that over the square root of its
    /// length, and a 64-bit session errs about once in two, so the
    /// bit-error rate needs 200 of them to settle.
    pub fn ops(self) -> usize {
        let ops = match self {
            Workload::Session => 200,
            Workload::Transmit => 100,
            Workload::Hostile => 100,
        };
        ops.max(min_samples_for(90.0, 10))
    }

    /// How a run folds an op's times over its passes. The minimum needs
    /// many samples of each op: measured on identical samples of six 30 s
    /// runs, it was the steadier estimate for `transmit` (75–100 passes;
    /// interquartile range of `ops_per_s` 8% against 47% for the median)
    /// and `hostile`, while a session list affords only 5–9 passes, where
    /// the median was steadier in each of three sets of runs (7% against
    /// 16% in the last).
    pub fn estimator(self) -> Estimator {
        match self {
            Workload::Session => Estimator::Median,
            Workload::Transmit | Workload::Hostile => Estimator::Min,
        }
    }

    /// Payload bits per op.
    fn payload_bits(self) -> usize {
        match self {
            Workload::Session => 64,
            Workload::Transmit | Workload::Hostile => 1024,
        }
    }
}

/// Warm-up machine builds in a `Session` pass's set-up. One build takes
/// under a millisecond, too short a sample of a shared host to be steady.
const SESSION_WARMUP_BUILDS: usize = 16;

/// Tries of one establishment before its op, or a channel's set-up, fails.
const ESTABLISH_TRIES: u64 = 4;

/// Stream tags splitting a run seed into independent input streams.
const MACHINE_STREAM: u64 = 0x5E7;
const PAYLOAD_STREAM: u64 = 0xB17;
const FAULT_STREAM: u64 = 0xFA;

/// The inputs of one run, derived from its seed alone: the same seed gives
/// the same op list, and every pass of a run replays it unchanged.
#[derive(Debug, Clone)]
pub struct OpList {
    /// Which workload the list belongs to.
    pub workload: Workload,
    /// The run seed the list was derived from.
    pub seed: u64,
    /// Machine seed of each op (`Session`) or of the one channel.
    machine_seeds: Vec<u64>,
    payloads: Vec<Vec<bool>>,
}

impl OpList {
    /// Derives `ops` ops of `workload` from `seed`.
    pub fn new(workload: Workload, seed: u64, ops: usize) -> Self {
        let machine_seeds = match workload {
            Workload::Session => (0..ops as u64).map(|i| stream_seed(seed, i)).collect(),
            Workload::Transmit | Workload::Hostile => vec![stream_seed(seed, MACHINE_STREAM)],
        };
        let payload_root = stream_seed(seed, PAYLOAD_STREAM);
        let payloads = (0..ops as u64)
            .map(|i| random_bits(workload.payload_bits(), stream_seed(payload_root, i)))
            .collect();
        OpList {
            workload,
            seed,
            machine_seeds,
            payloads,
        }
    }

    /// Ops in the list.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// The machine seeds the list builds machines from: one per op for
    /// `Session`, one for the shared channel otherwise.
    pub fn machine_seeds(&self) -> &[u64] {
        &self.machine_seeds
    }
}

/// Hooks the traced run uses to watch a pass without entering its timed
/// regions. Every method defaults to doing nothing.
pub trait Observer {
    /// A machine was just built, before its first memory op. For `Session`
    /// this runs inside the op's timed region.
    fn machine_built(&mut self, _setup: &mut AttackSetup) {}
    /// A channel workload finished its set-up.
    fn set_up_done(&mut self, _setup: &mut AttackSetup) {}
    /// Op `_op` returned `Ok` on `_setup`; its timed region is over.
    fn op_done(&mut self, _op: usize, _setup: &mut AttackSetup, _outcome: &OpOutcome) {}
}

/// The observer of an untraced run.
pub struct Quiet;

impl Observer for Quiet {}

/// What one successful op produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Hash of the op's simulated outcome (see [`OpResult::fingerprint`]).
    pub fingerprint: u64,
    /// Payload bits sent.
    pub bits: usize,
    /// Payload bits received wrong.
    pub errors: usize,
    /// Fault events the op's plan applied.
    pub faults: usize,
    /// Establishment tries that failed before one succeeded.
    pub retries: usize,
}

/// One op of one pass: its host time and its outcome or error.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Host nanoseconds of the op's timed region.
    pub host_ns: u64,
    /// The outcome, or the error the op's public call returned.
    pub outcome: Result<OpOutcome, String>,
}

impl OpResult {
    /// Hash of the simulated outcome, errors included, so two passes agree
    /// only if they did the same thing.
    pub fn fingerprint(&self) -> u64 {
        match &self.outcome {
            Ok(o) => o.fingerprint,
            Err(e) => Fnv64::default().bytes(e.as_bytes()).finish(),
        }
    }
}

/// One pass over an op list.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host nanoseconds of set-up: everything before the first timed op.
    pub setup_ns: u64,
    /// Hash of the set-up's simulated outcome (eviction set, monitor,
    /// clocks, MEE statistics), or of its error.
    pub setup_fingerprint: u64,
    /// The error set-up returned; when set, no op ran.
    pub setup_error: Option<String>,
    /// Establishment tries that failed before one succeeded, in set-up and
    /// in every op.
    pub retries: usize,
    /// Every op, in list order.
    pub ops: Vec<OpResult>,
}

impl Pass {
    /// Simulated bit-error rate over the ops that succeeded.
    pub fn ber(&self) -> f64 {
        let (bits, errors) = self
            .ops
            .iter()
            .filter_map(|op| op.outcome.as_ref().ok())
            .fold((0, 0), |(b, e), o| (b + o.bits, e + o.errors));
        if bits == 0 {
            0.0
        } else {
            errors as f64 / bits as f64
        }
    }

    /// Hash of the whole pass: set-up plus every op, in order.
    pub fn fingerprint(&self) -> u64 {
        Fnv64::default()
            .u64(self.setup_fingerprint)
            .words(self.ops.iter().map(OpResult::fingerprint))
            .finish()
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Folds the machine's final core clocks and MEE statistics into `h`.
fn hash_machine(h: &mut Fnv64, setup: &AttackSetup) {
    let m = &setup.machine;
    h.words((0..m.core_count()).map(|c| m.core_now(CoreId::new(c)).raw()));
    let s = m.mee().stats();
    h.u64(s.reads)
        .u64(s.writes)
        .words(s.hits_by_level.into_iter());
}

/// Folds a session's channel parameters into `h`.
fn hash_session(h: &mut Fnv64, session: &Session) {
    h.words(session.eviction_set.iter().map(|a| a.raw()));
    h.u64(session.monitor.raw());
}

/// Builds a machine from `seed` and establishes a channel on it with
/// [`ChannelConfig::default`]. Algorithm 1 fails on some machines' page
/// layouts ("eviction-set peeling failed ... retry with a different
/// candidate set"), so an establishment that returns `Err` is retried on a
/// fresh machine from `seed`'s stream, up to [`ESTABLISH_TRIES`] tries; the
/// failed tries stay in the caller's timed region. Returns the machine, the
/// session and the number of failed tries, or the last try's error.
fn establish(
    seed: u64,
    obs: &mut dyn Observer,
) -> Result<(AttackSetup, Session, usize), ModelError> {
    let mut tries = 0;
    loop {
        let machine_seed = if tries == 0 {
            seed
        } else {
            stream_seed(seed, tries)
        };
        let mut setup = AttackSetup::new(machine_seed)?;
        obs.machine_built(&mut setup);
        match Session::establish(&mut setup, &ChannelConfig::default()) {
            Ok(session) => return Ok((setup, session, tries as usize)),
            Err(e) if tries + 1 == ESTABLISH_TRIES => return Err(e),
            Err(_) => tries += 1,
        }
    }
}

/// The shared channel of the `Transmit` and `Hostile` workloads.
struct Channel {
    setup: AttackSetup,
    session: Session,
    /// Failed establishment tries before this channel.
    retries: usize,
    /// One heavy fault plan per op, starting at cycle 0 (`Hostile` only);
    /// each op shifts its plan to the machine's clock.
    plans: Vec<FaultPlan>,
}

impl Channel {
    fn build(list: &OpList, obs: &mut dyn Observer) -> Result<Self, ModelError> {
        let (setup, session, retries) = establish(list.machine_seeds[0], obs)?;
        let plans = if list.workload == Workload::Hostile {
            let targets = session_fault_targets(&setup, &session)?;
            let wire = coding::frame(&list.payloads[0]).len() + Session::RESYNC_SEARCH;
            let span = session.config.window * wire as u64;
            let root = stream_seed(list.seed, FAULT_STREAM);
            (0..list.len() as u64)
                .map(|i| {
                    FaultPlan::for_session(
                        FaultIntensity::Heavy,
                        &targets,
                        Cycles::ZERO,
                        span,
                        root,
                        i,
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(Channel {
            setup,
            session,
            retries,
            plans,
        })
    }

    fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::default();
        hash_session(&mut h, &self.session);
        hash_machine(&mut h, &self.setup);
        h.finish()
    }

    /// Runs op `i`, timing only the transmission call.
    fn op(&mut self, list: &OpList, i: usize, obs: &mut dyn Observer) -> OpResult {
        let payload = &list.payloads[i];
        let (host_ns, result) = match list.workload {
            Workload::Transmit => {
                let start = Instant::now();
                let r = self.session.transmit(&mut self.setup, payload);
                let ns = elapsed_ns(start);
                (
                    ns,
                    r.map(|out| (out.received, Vec::new(), out.errors.count(), 0)),
                )
            }
            Workload::Hostile => {
                let now = self
                    .setup
                    .machine
                    .core_now(self.session.sender.core)
                    .max(self.setup.machine.core_now(self.session.receiver.core));
                let mut injector = FaultInjector::new(self.plans[i].clone().shifted(now));
                let start = Instant::now();
                let r = self
                    .session
                    .transmit_robust(&mut self.setup, payload, &mut injector);
                let ns = elapsed_ns(start);
                let faults = injector.applied().len();
                (
                    ns,
                    r.map(|out| (out.received, out.raw.received, out.errors.count(), faults)),
                )
            }
            Workload::Session => unreachable!("sessions build their own machine per op"),
        };
        let outcome = result.map(|(received, raw, errors, faults)| {
            let mut h = Fnv64::default();
            h.bits(&received).bits(&raw).u64(faults as u64);
            hash_machine(&mut h, &self.setup);
            let out = OpOutcome {
                fingerprint: h.finish(),
                bits: payload.len(),
                errors,
                faults,
                retries: 0,
            };
            obs.op_done(i, &mut self.setup, &out);
            out
        });
        OpResult {
            host_ns,
            outcome: outcome.map_err(|e| e.to_string()),
        }
    }
}

/// Runs op `i` of a `Session` list: build, establish and transmit are
/// timed; the machine's teardown is not.
fn session_op(list: &OpList, i: usize, obs: &mut dyn Observer) -> OpResult {
    let payload = &list.payloads[i];
    let start = Instant::now();
    let mut run = || -> Result<_, ModelError> {
        let (mut setup, session, retries) = establish(list.machine_seeds[i], obs)?;
        let out = session.transmit(&mut setup, payload)?;
        Ok((setup, session, out, retries))
    };
    let result = run();
    let host_ns = elapsed_ns(start);
    let outcome = result.map(|(mut setup, session, out, retries)| {
        let mut h = Fnv64::default();
        hash_session(&mut h, &session);
        h.bits(&out.received);
        hash_machine(&mut h, &setup);
        let outcome = OpOutcome {
            fingerprint: h.finish(),
            bits: payload.len(),
            errors: out.errors.count(),
            faults: 0,
            retries,
        };
        obs.op_done(i, &mut setup, &outcome);
        outcome
    });
    OpResult {
        host_ns,
        outcome: outcome.map_err(|e| e.to_string()),
    }
}

/// Runs one whole pass of `list`: set-up, then every op in order.
pub fn run_pass(list: &OpList, obs: &mut dyn Observer) -> Pass {
    let start = Instant::now();
    match list.workload {
        Workload::Session => {
            // A session's set-up is warm-up builds of the list's first
            // machines, each dropped before the next, so work moved into
            // machine construction shows here.
            for &seed in list
                .machine_seeds
                .iter()
                .cycle()
                .take(SESSION_WARMUP_BUILDS)
            {
                drop(black_box(AttackSetup::new(seed)));
            }
            let setup_ns = elapsed_ns(start);
            let ops: Vec<OpResult> = (0..list.len()).map(|i| session_op(list, i, obs)).collect();
            Pass {
                setup_ns,
                setup_fingerprint: 0,
                setup_error: None,
                retries: ops
                    .iter()
                    .filter_map(|op| op.outcome.as_ref().ok())
                    .map(|o| o.retries)
                    .sum(),
                ops,
            }
        }
        Workload::Transmit | Workload::Hostile => match Channel::build(list, obs) {
            Ok(mut channel) => {
                let setup_ns = elapsed_ns(start);
                obs.set_up_done(&mut channel.setup);
                let ops = (0..list.len()).map(|i| channel.op(list, i, obs)).collect();
                Pass {
                    setup_ns,
                    setup_fingerprint: channel.fingerprint(),
                    setup_error: None,
                    retries: channel.retries,
                    ops,
                }
            }
            Err(e) => {
                let setup_ns = elapsed_ns(start);
                let e = e.to_string();
                Pass {
                    setup_ns,
                    setup_fingerprint: Fnv64::default().bytes(e.as_bytes()).finish(),
                    setup_error: Some(e),
                    retries: 0,
                    ops: Vec::new(),
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lists_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a = OpList::new(w, 5, 4);
            let b = OpList::new(w, 5, 4);
            let c = OpList::new(w, 6, 4);
            assert_eq!(a.payloads, b.payloads);
            assert_eq!(a.machine_seeds, b.machine_seeds);
            assert_ne!(a.payloads, c.payloads);
            assert_eq!(a.len(), 4);
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(
            OpList::new(Workload::Session, 1, 3).machine_seeds().len(),
            3
        );
        assert_eq!(
            OpList::new(Workload::Hostile, 1, 3).machine_seeds().len(),
            1
        );
        assert_eq!(Workload::parse("sweep"), None);
    }

    #[test]
    fn a_longer_list_extends_a_shorter_one() {
        let short = OpList::new(Workload::Session, 9, 1);
        let long = OpList::new(Workload::Session, 9, 3);
        assert_eq!(short.payloads[0], long.payloads[0]);
        assert_eq!(short.machine_seeds[0], long.machine_seeds[0]);
    }

    #[test]
    fn passes_of_one_list_are_bit_identical() {
        let list = OpList::new(Workload::Transmit, 3, 2);
        let a = run_pass(&list, &mut Quiet);
        let b = run_pass(&list, &mut Quiet);
        assert!(a.setup_error.is_none(), "{:?}", a.setup_error);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.ops.iter().all(|op| op.outcome.is_ok()));
    }

    #[test]
    fn a_failed_establishment_is_retried_on_a_fresh_machine() {
        // Op 14 of session seed 12: Algorithm 1 fails on the first machine.
        let seed = OpList::new(Workload::Session, 12, 15).machine_seeds()[14];
        let first = AttackSetup::new(seed).and_then(|mut setup| {
            Session::establish(&mut setup, &ChannelConfig::default()).map(|_| ())
        });
        assert!(first.is_err(), "the first try should fail");
        let (_, _, retries) = establish(seed, &mut Quiet).expect("a retry succeeds");
        assert_eq!(retries, 1);
    }

    #[test]
    fn error_fingerprints_depend_on_the_message() {
        let op = |e: &str| OpResult {
            host_ns: 1,
            outcome: Err(e.to_string()),
        };
        assert_eq!(op("a").fingerprint(), op("a").fingerprint());
        assert_ne!(op("a").fingerprint(), op("b").fingerprint());
    }
}
