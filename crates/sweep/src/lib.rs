#![warn(missing_docs)]
//! **mee-sweep** — a deterministic parallel session runner.
//!
//! Every statistical claim in this reproduction (the Fig. 5 latency
//! histograms, the Fig. 6 BER contrast, the 35 KBps headline) is verified
//! by running *many independent simulator sessions* — seed sweeps,
//! timing-window sweeps, noise-level sweeps — and pooling their results.
//! Serially those sweeps are the slowest part of the test suite, which
//! pressures tests toward fewer seeds and looser bounds. This crate makes
//! the sweeps parallel **without giving up reproducibility**:
//!
//! * work is distributed over `std::thread::scope` workers through an
//!   atomic work queue, so any number of threads drains the same session
//!   list;
//! * each session is a pure function of its *index* (and, for seed sweeps,
//!   of a seed split from the root seed via [`mee_rng::stream_seed`]), so
//!   no session ever observes another session's RNG;
//! * results are collected **by session index, never by completion
//!   order** — the output of [`Sweep::run`] is bit-identical for 1 thread
//!   or 64.
//!
//! This is the workspace's one worker pool: `mee-campaign` runs each
//! pending shard of a campaign as one [`Sweep::run`] item.
//!
//! The thread count defaults to the host's available parallelism and can
//! be pinned with the `MEE_SWEEP_THREADS` environment variable (or
//! [`Sweep::threads`] in code). Determinism never depends on it.
//!
//! ```
//! use mee_sweep::Sweep;
//!
//! let serial = Sweep::serial().seed_sweep(2019, 8, |s| s.seed.wrapping_mul(3));
//! let parallel = Sweep::with_threads(4).seed_sweep(2019, 8, |s| s.seed.wrapping_mul(3));
//! assert_eq!(serial, parallel); // bit-identical, any thread count
//! ```

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mee_rng::env_knob::{self, EnvKnobError};
use mee_rng::stream_seed;

/// Best-effort extraction of a panic payload's human-readable message
/// (`&str` and `String` payloads; anything else is reported opaquely).
/// Shared with higher orchestration layers (campaigns) so every enriched
/// panic reads the same.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Environment variable pinning the worker-thread count of every sweep
/// built with [`Sweep::from_env`].
pub const THREADS_ENV: &str = "MEE_SWEEP_THREADS";

/// One session of a seed sweep: its position in the sweep and the RNG seed
/// derived for it.
///
/// The seed is `stream_seed(root, index)` — sibling sessions get
/// uncorrelated streams, and session `i` keeps the same seed regardless of
/// how many sessions run before or after it (so growing a sweep never
/// perturbs existing sessions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// Position in the sweep (`0..sessions`).
    pub index: usize,
    /// The session's root-derived RNG seed.
    pub seed: u64,
}

impl SessionSpec {
    /// Session `index` of the seed space rooted at `root`: its seed is
    /// `stream_seed(root, index)`.
    pub fn new(root: u64, index: usize) -> Self {
        SessionSpec {
            index,
            seed: stream_seed(root, index as u64),
        }
    }

    /// The one-line failure context of this session in the `mee-spec`
    /// counterexample style: the session, its split seed, `what` went
    /// wrong, and the replay recipe —
    /// `session i[ of n] (seed 0x…): what | replay: rerun session i alone —
    /// its seed is stream_seed(root, i)`. `of` names the sweep size when
    /// there is one. Sweeps and campaigns both report through it, so every
    /// crashed session reads the same.
    pub fn replay_context(&self, root: u64, of: Option<usize>, what: &str) -> String {
        let i = self.index;
        let of = of.map_or_else(String::new, |n| format!(" of {n}"));
        format!(
            "session {i}{of} (seed 0x{seed:016x}): {what} | replay: rerun session {i} alone — \
             its seed is stream_seed({root}, {i})",
            seed = self.seed
        )
    }
}

/// Derives the per-session specs of an `n`-session sweep rooted at `root`.
pub fn session_seeds(root: u64, n: usize) -> Vec<SessionSpec> {
    (0..n).map(|index| SessionSpec::new(root, index)).collect()
}

/// The nearest-rank `p`-th percentile (`0 ≤ p ≤ 100`) of an
/// ascending-sorted slice: the element at index `round(p / 100 · (n − 1))`,
/// halves rounded up. Sweeps and campaigns report their per-session
/// percentiles through it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A parallel sweep runner: how many worker threads drain the session
/// queue.
///
/// The thread count affects wall-clock only; results are always identical
/// to serial execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    threads: usize,
}

impl Sweep {
    /// A sweep sized from the environment: `MEE_SWEEP_THREADS` if set,
    /// otherwise the host's available parallelism. A bad override comes
    /// back as a value, never a silent default, so binaries can exit with
    /// a usage message the way they do for bad CLI flags.
    ///
    /// # Errors
    ///
    /// Returns the strict-knob [`EnvKnobError`] when the variable is set
    /// to anything but a positive integer (zero, garbage, or an
    /// overflowing number).
    pub fn from_env() -> Result<Self, EnvKnobError> {
        let threads = match std::env::var(THREADS_ENV) {
            Ok(v) => env_knob::parse_positive(THREADS_ENV, &v)?,
            Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        Ok(Sweep { threads })
    }

    /// A single-threaded sweep (the serial reference execution).
    pub fn serial() -> Self {
        Sweep { threads: 1 }
    }

    /// A sweep with exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "a sweep needs at least one worker thread");
        Sweep { threads }
    }

    /// Overrides the worker count (`None` keeps the current value) — handy
    /// for threading an optional `--threads` CLI flag through.
    pub fn threads(self, threads: Option<usize>) -> Self {
        match threads {
            Some(n) => Self::with_threads(n),
            None => self,
        }
    }

    /// The configured worker count.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Runs `f(index, &items[index])` for every item and returns the
    /// results **in item order**.
    ///
    /// Workers pull indices from a shared atomic queue, so scheduling is
    /// nondeterministic — but `f` receives only the index and the item, and
    /// each result is placed by index, so the returned vector is identical
    /// for any thread count. A panic inside `f` propagates to the caller
    /// **with shard context attached**: the payload names the panicking
    /// session's index and a one-line replay recipe, and when several
    /// sessions panic the *lowest-indexed* one is reported, deterministically
    /// — the whole queue is drained first, so the report cannot depend on
    /// which worker crashed first.
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let n = items.len();
        self.run_core(items, f, |i, _| format!("sweep item {i} of {n} panicked"))
    }

    /// The shared engine behind [`Sweep::run`] and [`Sweep::seed_sweep`]:
    /// drains the queue, catches per-session panics, and re-raises the
    /// lowest-indexed one with `describe(index, item)` prepended — the
    /// `mee-spec` counterexample convention (one line, session identity,
    /// replay recipe) applied to worker crashes.
    fn run_core<I, T, F, D>(&self, items: &[I], f: F, describe: D) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
        D: Fn(usize, &I) -> String + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);

        // One session call, panic-isolated. `AssertUnwindSafe` is sound
        // here: a caught payload is only ever re-propagated (enriched),
        // never used to continue with possibly-broken state the closure
        // observed mid-panic.
        let call = |i: usize| -> Result<T, String> {
            std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
                .map_err(|payload| panic_message(payload.as_ref()))
        };
        let raise = |i: usize, msg: String| -> ! { panic!("{}: {msg}", describe(i, &items[i])) };

        if workers <= 1 {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                // Serial execution visits indices in order, so the first
                // panic *is* the lowest-indexed one.
                match call(i) {
                    Ok(t) => out.push(t),
                    Err(msg) => raise(i, msg),
                }
            }
            return out;
        }

        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
        let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // Collect locally and merge once at the end: the mutex
                    // is touched once per worker, not once per session.
                    let mut local = Vec::new();
                    let mut local_panics = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match call(i) {
                            Ok(t) => local.push((i, t)),
                            Err(msg) => local_panics.push((i, msg)),
                        }
                    }
                    collected.lock().unwrap().extend(local);
                    if !local_panics.is_empty() {
                        panics.lock().unwrap().extend(local_panics);
                    }
                });
            }
        });

        let mut caught = panics.into_inner().unwrap();
        if let Some((i, msg)) = caught.drain(..).min_by_key(|&(i, _)| i) {
            raise(i, msg);
        }

        let mut indexed = collected.into_inner().unwrap();
        indexed.sort_unstable_by_key(|&(i, _)| i);
        debug_assert_eq!(indexed.len(), n, "work queue dropped sessions");
        indexed.into_iter().map(|(_, t)| t).collect()
    }

    /// Runs an `n`-session seed sweep rooted at `root`: session `i` calls
    /// `f` with [`SessionSpec`] `{ index: i, seed: stream_seed(root, i) }`.
    /// Results come back in session order.
    ///
    /// A panicking session propagates with its index, split seed, and a
    /// one-line replay recipe attached (lowest index deterministically
    /// when several panic — see [`Sweep::run`]).
    pub fn seed_sweep<T, F>(&self, root: u64, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(SessionSpec) -> T + Sync,
    {
        let specs = session_seeds(root, n);
        self.run_core(
            &specs,
            |_, &spec| f(spec),
            |_, spec| format!("sweep {}", spec.replay_context(root, Some(n), "panicked")),
        )
    }

    /// Like [`Sweep::seed_sweep`] for fallible sessions: returns the first
    /// error *by session index* (not by completion order), so failures are
    /// as reproducible as successes.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed session's error if any session fails.
    pub fn try_seed_sweep<T, E, F>(&self, root: u64, n: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(SessionSpec) -> Result<T, E> + Sync,
    {
        self.seed_sweep(root, n, f).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

    /// A deterministic, moderately expensive session body: a few thousand
    /// RNG draws folded together. Pure function of the spec.
    fn chew(spec: SessionSpec) -> u64 {
        let mut rng = mee_rng::Rng::seed_from_u64(spec.seed);
        let mut acc = spec.index as u64;
        for _ in 0..4096 {
            acc = acc.wrapping_add(rng.next_u64()).rotate_left(7);
        }
        acc
    }

    #[test]
    fn parallel_results_are_bit_identical_to_serial() {
        let serial = Sweep::serial().seed_sweep(2019, 64, chew);
        for threads in [2, 3, 4, 8, 64, 200] {
            let parallel = Sweep::with_threads(threads).seed_sweep(2019, 64, chew);
            assert_eq!(serial, parallel, "{threads} threads diverged from serial");
        }
    }

    #[test]
    fn percentile_rounds_the_rank_to_the_nearest_index() {
        let xs: Vec<u64> = (0..10).collect();
        // Rank p/100 · 9: 50 → 4.5 rounds half away from zero to 5;
        // 95 → 8.55 → 9; 44 → 3.96 → 4; 5 → 0.45 → 0.
        assert_eq!(percentile(&xs, 50.0), 5);
        assert_eq!(percentile(&xs, 95.0), 9);
        assert_eq!(percentile(&xs, 44.0), 4);
        assert_eq!(percentile(&xs, 5.0), 0);
        assert_eq!(percentile(&xs, 0.0), 0);
        assert_eq!(percentile(&xs, 100.0), 9);
        // Four sessions: p50 is rank 1.5 → index 2, p95 rank 2.85 → 3.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 95.0), 4.0);
        assert_eq!(percentile(&[7u64], 95.0), 7);
    }

    #[test]
    fn results_come_back_in_index_order() {
        let out = Sweep::with_threads(4).run(&[10u64, 20, 30, 40, 50], |i, &x| (i, x));
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30), (3, 40), (4, 50)]);
    }

    #[test]
    fn every_session_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = Sweep::with_threads(8).run(&[(); 100], |i, ()| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u64> = Sweep::with_threads(4).run(&[] as &[u64], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn session_seeds_match_stream_seed_convention() {
        let specs = session_seeds(2019, 4);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(spec.index, i);
            assert_eq!(spec.seed, stream_seed(2019, i as u64));
        }
        // Sibling sessions get distinct seeds; growing the sweep keeps them.
        assert_ne!(specs[0].seed, specs[1].seed);
        assert_eq!(session_seeds(2019, 16)[..4], specs[..]);
    }

    #[test]
    fn try_seed_sweep_reports_lowest_indexed_error() {
        // Sessions 3 and 7 both fail; the error must deterministically be
        // session 3's regardless of which worker finishes first.
        for threads in [1, 2, 8] {
            let err = Sweep::with_threads(threads)
                .try_seed_sweep(1, 10, |s| {
                    if s.index == 3 || s.index == 7 {
                        Err(format!("session {} failed", s.index))
                    } else {
                        Ok(s.index)
                    }
                })
                .unwrap_err();
            assert_eq!(err, "session 3 failed");
        }
    }

    #[test]
    fn try_seed_sweep_collects_all_successes() {
        let ok: Vec<usize> = Sweep::with_threads(3)
            .try_seed_sweep(1, 12, |s| Ok::<_, ()>(s.index * 2))
            .unwrap();
        assert_eq!(ok, (0..12).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Sweep::with_threads(0);
    }

    #[test]
    fn from_env_surfaces_bad_overrides_as_errors() {
        // Env vars are process-global: this is the only test in the crate
        // that touches MEE_SWEEP_THREADS, and it restores the prior state.
        let prior = std::env::var(THREADS_ENV).ok();

        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Sweep::from_env().unwrap().thread_count(), 3);

        std::env::set_var(THREADS_ENV, "0");
        let err = Sweep::from_env().unwrap_err();
        assert_eq!(err.value, "0");

        std::env::set_var(THREADS_ENV, "lots");
        assert!(Sweep::from_env().is_err());

        std::env::remove_var(THREADS_ENV);
        assert!(Sweep::from_env().unwrap().thread_count() >= 1);

        if let Some(v) = prior {
            std::env::set_var(THREADS_ENV, v);
        }
    }

    #[test]
    fn threads_override_is_optional() {
        assert_eq!(Sweep::serial().threads(None).thread_count(), 1);
        assert_eq!(Sweep::serial().threads(Some(6)).thread_count(), 6);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Sweep::with_threads(4).run(&[0u64; 16], |i, _| {
                assert!(i != 5, "session 5 exploded");
                i
            })
        });
        assert!(result.is_err(), "worker panic was swallowed");
    }

    /// Extracts the enriched payload string of a propagated sweep panic.
    fn caught_message(result: Result<impl Sized, Box<dyn std::any::Any + Send>>) -> String {
        let payload = result.err().expect("sweep must panic");
        super::panic_message(payload.as_ref())
    }

    #[test]
    fn propagated_panic_names_the_item_and_original_message() {
        let msg = caught_message(std::panic::catch_unwind(|| {
            Sweep::with_threads(4).run(&[0u64; 16], |i, _| {
                assert!(i != 5, "session 5 exploded");
                i
            })
        }));
        assert!(msg.contains("item 5 of 16"), "no shard context in: {msg}");
        assert!(
            msg.contains("session 5 exploded"),
            "original payload lost: {msg}"
        );
    }

    #[test]
    fn seed_sweep_panic_carries_seed_and_replay_recipe() {
        for threads in [1, 4] {
            let msg = caught_message(std::panic::catch_unwind(|| {
                Sweep::with_threads(threads).seed_sweep(2019, 8, |s| {
                    assert!(s.index != 3, "boom");
                    s.index
                })
            }));
            let seed = stream_seed(2019, 3);
            assert!(msg.contains("session 3 of 8"), "no session index in: {msg}");
            assert!(
                msg.contains(&format!("0x{seed:016x}")),
                "no split seed in: {msg}"
            );
            assert!(
                msg.contains("replay:") && msg.contains("stream_seed(2019, 3)"),
                "no replay recipe in: {msg}"
            );
            assert!(msg.contains("boom"), "original payload lost: {msg}");
        }
    }

    #[test]
    fn lowest_indexed_panic_wins_deterministically() {
        // Sessions 2 and 6 both panic; the propagated payload must name
        // session 2 for every thread count (completion order must not leak
        // into the report).
        for threads in [1, 2, 8] {
            let msg = caught_message(std::panic::catch_unwind(|| {
                Sweep::with_threads(threads).seed_sweep(7, 10, |s| {
                    assert!(s.index != 2 && s.index != 6, "kaboom {}", s.index);
                    s.index
                })
            }));
            assert!(
                msg.contains("session 2 of 10"),
                "{threads} threads reported the wrong session: {msg}"
            );
            assert!(msg.contains("kaboom 2"), "wrong original payload: {msg}");
        }
    }

    #[test]
    fn non_string_panic_payload_is_reported_opaquely() {
        let msg = caught_message(std::panic::catch_unwind(|| {
            Sweep::with_threads(2).run(&[0u64; 4], |i, _| {
                if i == 1 {
                    std::panic::panic_any(17u32);
                }
                i
            })
        }));
        assert!(msg.contains("item 1 of 4"), "no shard context in: {msg}");
        assert!(
            msg.contains("non-string panic payload"),
            "payload kind lost: {msg}"
        );
    }

    /// Wall-clock smoke check: a parallel sweep must never be
    /// pathologically slower than serial. The bound is deliberately loose
    /// (10x) — this guards against accidental serialization through a
    /// contended lock, not against scheduler noise, and must also pass on
    /// single-core CI hosts where no speedup is possible.
    #[test]
    fn parallel_sweep_wall_clock_is_sane() {
        let sessions = 32;
        let serial_start = Instant::now();
        let serial = Sweep::serial().seed_sweep(7, sessions, chew);
        let serial_elapsed = serial_start.elapsed();

        let par_start = Instant::now();
        let parallel = Sweep::with_threads(4).seed_sweep(7, sessions, chew);
        let par_elapsed = par_start.elapsed();

        assert_eq!(serial, parallel);
        let ceiling = serial_elapsed
            .checked_mul(10)
            .unwrap()
            .max(std::time::Duration::from_millis(250));
        assert!(
            par_elapsed < ceiling,
            "parallel sweep took {par_elapsed:?} vs serial {serial_elapsed:?}"
        );
    }
}
