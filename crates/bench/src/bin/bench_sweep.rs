//! The parallel seed-sweep benchmark: N independent channel sessions
//! (establish + transmit on a fresh noisy machine each) run through
//! `run_channel_sweep` on the `mee-sweep` work queue.
//!
//! ```text
//! cargo run --release -p mee-bench --bin bench-sweep -- [seed] [scale] [--threads N]
//! ```
//!
//! * one JSON line per session on stdout (carrying the session's split
//!   seed, so a suspicious session replays standalone — see
//!   EXPERIMENTS.md "Running sweeps");
//! * one aggregate JSON line, also written to `BENCH_sweep.json` in the
//!   working directory (`--out <path>` overrides the artifact path);
//! * `scale` multiplies both the session count (4×) and the payload
//!   (64 bits ×); `--threads` / `MEE_SWEEP_THREADS` pin the worker count,
//!   which changes wall time but never the results.
//!
//! A failed session exits 1 with the lowest-indexed failure's error.

use mee_attack::channel::ChannelConfig;
use mee_attack::experiments::{run_channel_sweep, SweepPlan};
use mee_bench::sweep::SweepReport;
use mee_bench::HarnessArgs;
use mee_sweep::Sweep;

fn main() {
    let args = HarnessArgs::from_env();
    // Validate the environment override the same way bad CLI flags are
    // rejected: a message on stderr and exit status 2, not a panic.
    let threads = match Sweep::from_env() {
        Ok(r) => r.threads(args.threads).thread_count(),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let bits = 64 * args.scale;
    let plan = SweepPlan::new(args.seed, 4 * args.scale).threads(threads);
    let records = match run_channel_sweep(&plan, &ChannelConfig::sweep_setup(), bits) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("bench-sweep: session failed: {e}");
            std::process::exit(1);
        }
    };

    let report = SweepReport {
        name: "channel/seed_sweep".into(),
        root_seed: args.seed,
        threads,
        bits_per_session: bits,
        records,
    };
    report.emit();
    let path = args.out_or("BENCH_sweep.json");
    let path = path.as_path();
    if let Err(e) = report.write(path) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
}
