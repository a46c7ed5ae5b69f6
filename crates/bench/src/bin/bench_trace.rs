//! The traced-session exporter: one full covert-channel session (noisy
//! machine, light fault plan, establish + transmit) recorded by `mee-obs`
//! and exported as a Chrome `trace_event` document.
//!
//! ```text
//! cargo run --release -p mee-bench --bin bench-trace -- [seed] [scale] [--out PATH] [--trace EVENTS]
//! ```
//!
//! * the Chrome trace (load it at `ui.perfetto.dev`) is written to
//!   `BENCH_trace.json` in the working directory (`--out <path>`
//!   overrides the artifact path);
//! * one summary JSON line on stdout: event/category counts, ring drops,
//!   and the metrics-vs-engine reconciliation verdict;
//! * `scale` multiplies the payload (32 bits ×); `--trace` / `MEE_TRACE`
//!   size the event ring, the flag winning (default 2²⁰ events — tracing
//!   is the point of this binary, so a capacity of 0 is rejected, as is a
//!   malformed `MEE_TRACE`, with exit status 2);
//! * exits 1 if the traced session does not cover all four event
//!   categories (memory, tree, fault, channel) or if the per-core metric
//!   counters disagree with the engine's own end-of-run statistics.
//!
//! Everything sim-time in the artifact is a pure function of the seed:
//! same seed ⇒ byte-identical `"traceEvents"` and `"meeMetrics"`. Only
//! the embedded `"hostProfile"` (host nanoseconds) varies run to run.

use std::collections::BTreeSet;
use std::io::Write as _;

use mee_attack::channel::{random_bits, ChannelConfig, Session};
use mee_attack::experiments::session_fault_targets;
use mee_attack::setup::AttackSetup;
use mee_bench::HarnessArgs;
use mee_faults::{FaultInjector, FaultIntensity, FaultPlan};
use mee_obs::{chrome_trace, ChromeTraceOptions};
use mee_rng::stream_seed;
use mee_types::Cycles;

/// Splits `--trace EVENTS` off the arguments; the rest go to the shared
/// [`HarnessArgs`] grammar.
fn split_trace_flag<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(Option<usize>, Vec<String>), String> {
    let mut trace = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(s) = it.next() {
        if s == "--trace" {
            let v = it.next().unwrap_or_else(|| "<missing>".into());
            let events = v.parse().map_err(|_| {
                format!(
                    "invalid trace argument {v:?} (usage: [seed:u64] [scale:usize>=1] \
                     [--out PATH] [--trace EVENTS])"
                )
            })?;
            trace = Some(events);
        } else {
            rest.push(s);
        }
    }
    Ok((trace, rest))
}

/// The event-ring capacity: the `--trace` flag, else `MEE_TRACE`, else the
/// default ring. The environment is read once, here.
fn capacity(flag: Option<usize>) -> Result<usize, String> {
    let requested = match flag {
        Some(n) => Some(n),
        None => mee_obs::env_capacity().map_err(|e| e.to_string())?,
    };
    match requested {
        None => Ok(mee_obs::DEFAULT_RING_CAPACITY),
        Some(0) => Err(
            "bench-trace exports a trace; enable tracing (--trace N>0, or unset MEE_TRACE=0)"
                .into(),
        ),
        Some(n) => Ok(n),
    }
}

fn main() {
    let parsed = split_trace_flag(std::env::args().skip(1)).and_then(|(flag, rest)| {
        let args = HarnessArgs::parse(rest).map_err(|e| e.to_string())?;
        Ok((args, capacity(flag)?))
    });
    let (args, capacity) = parsed.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let bits = 32 * args.scale;

    // Tracing goes on before the first memory op, so the metrics registry
    // sees every walk the engine sees and the reconciliation below can
    // demand exact equality.
    let mut setup = AttackSetup::new(args.seed).expect("machine construction");
    setup.machine.enable_tracing(capacity);

    let cfg = ChannelConfig::sweep_setup();
    let session = Session::establish(&mut setup, &cfg).expect("channel establishment");

    // A light fault plan over the transmission span puts the `fault`
    // category on the timeline without drowning the channel.
    let targets = session_fault_targets(&setup, &session).expect("fault targets");
    let start = setup
        .machine
        .core_now(session.sender.core)
        .max(setup.machine.core_now(session.receiver.core));
    let span = Cycles::new(bits as u64 * cfg.window.raw() * 4 + 2_000_000);
    let plan = FaultPlan::generate(
        FaultIntensity::Light,
        &targets,
        start,
        span,
        stream_seed(args.seed, 0xFA),
    );
    let mut injector = FaultInjector::new(plan);

    let payload = random_bits(bits, args.seed);
    let out = session
        .transmit_hooked(&mut setup, &payload, &mut [], &mut injector)
        .expect("transmission");

    let machine = &setup.machine;
    let events = machine.obs().events();
    let categories: BTreeSet<&'static str> = events.iter().map(|e| e.kind.category()).collect();
    let dropped = machine.obs().ring().map_or(0, |r| r.dropped());

    // Reconcile the tracer's view against the engine's own counters: the
    // per-core mee-hit histograms summed over cores must equal the MEE's
    // end-of-run walk statistics exactly.
    let metrics = machine.obs().metrics.as_ref().expect("tracing is enabled");
    let traced_hits = metrics.mee_hits_total();
    let engine_hits = machine.mee().stats().hits_by_level;
    let reconciled = traced_hits == engine_hits;

    let trace = chrome_trace(
        &events,
        &ChromeTraceOptions {
            seed: args.seed,
            cores: machine.config().cores,
            dropped,
            metrics: Some(metrics),
            host: Some(&machine.obs().host),
        },
    );
    let path = args.out_or("BENCH_trace.json");
    let write = std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(trace.as_bytes()).and_then(|()| writeln!(f)));
    if let Err(e) = write {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }

    let cats: Vec<String> = categories.iter().map(|c| format!("\"{c}\"")).collect();
    println!(
        "{{\"name\":\"trace/session\",\"seed\":{},\"bits\":{},\"bit_errors\":{},\
         \"events\":{},\"dropped\":{},\"categories\":[{}],\"faults_applied\":{},\
         \"metrics_reconciled\":{},\"out\":{:?}}}",
        args.seed,
        bits,
        out.errors.count(),
        events.len(),
        dropped,
        cats.join(","),
        injector.applied().len(),
        reconciled,
        path.display().to_string(),
    );

    if !reconciled {
        eprintln!(
            "metrics diverged from engine stats: traced {traced_hits:?} vs engine {engine_hits:?}"
        );
        std::process::exit(1);
    }
    for want in ["memory", "tree", "fault", "channel"] {
        if !categories.contains(want) {
            eprintln!("trace is missing the {want:?} category (got {categories:?})");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn trace_flag_is_split_off_anywhere() {
        let (trace, rest) = split_trace_flag(args(&["7", "--trace", "4096", "2"])).unwrap();
        assert_eq!(trace, Some(4096));
        assert_eq!(rest, args(&["7", "2"]));
        let (trace, rest) = split_trace_flag(args(&["--out", "x.json"])).unwrap();
        assert_eq!(trace, None);
        assert_eq!(rest, args(&["--out", "x.json"]));
    }

    #[test]
    fn trace_flag_rejects_garbage() {
        for bad in [&["--trace"][..], &["--trace", "big"], &["--trace", "-1"]] {
            let e = split_trace_flag(args(bad)).unwrap_err();
            assert!(e.starts_with("invalid trace argument"), "{bad:?}: {e}");
        }
    }

    /// The flag beats the environment, so these cases never read it.
    #[test]
    fn a_zero_capacity_is_rejected() {
        assert_eq!(capacity(Some(64)), Ok(64));
        assert!(capacity(Some(0)).unwrap_err().contains("enable tracing"));
    }
}
