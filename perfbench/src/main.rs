//! Host-speed benchmark of the MEE covert-channel simulator.
//!
//! ```text
//! perfbench --workload <session|transmit|hostile> --seed N --seconds S --trace 0|1
//! perfbench --bless --workload W
//! ```
//!
//! A run derives a fixed op list from `--seed` and executes it in as many
//! whole passes as fit in `--seconds` (at least [`MIN_PASSES`]), folding
//! each op's host times over the passes with its workload's estimator
//! (`Workload::estimator`). Every pass must reproduce the first one's
//! simulated outcome bit for bit, and the outcome must match the
//! fingerprint committed in `fingerprints.txt` for that workload and seed;
//! the op list of the canary seed is checked on every run. With
//! `--trace 0` the last stdout line reports the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of [`layers`]. A human-readable table
//! goes to stderr. Exits 1 on a fingerprint mismatch, 2 on bad arguments
//! or a missing or malformed fingerprint table.
//!
//! `--bless` prints the fingerprint table lines of [`BLESS_SEEDS`] instead
//! (see `README.md` for when to regenerate them).

mod layers;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::ops::Range;
use std::process::exit;
use std::time::{Duration, Instant};

use stats::{fold, per_op, percentile, samples_beyond};
use workload::{run_pass, OpList, Pass, Quiet, Workload};

/// Fewest passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// Seed of the canary op list checked on every run, whatever `--seed` is.
const CANARY_SEED: u64 = 2019;

/// Ops in the canary list: one, so the check stays cheap.
const CANARY_OPS: usize = 1;

/// Seeds whose fingerprints `--bless` writes; the canary covers all others.
const BLESS_SEEDS: Range<u64> = 0..64;

/// The committed fingerprint table, read when the run starts.
const FINGERPRINTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fingerprints.txt");

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <session|transmit|hostile> --seed N --seconds S \
         --trace 0|1\n       \
         perfbench --bless --workload W"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let Some(name) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument {flag:?}"));
        };
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        if flags.insert(name.to_string(), value).is_some() {
            usage(&format!("{flag} given twice"));
        }
    }
    let mut take = |name: &str| flags.remove(name);
    let number = |name: &str, v: String| -> u64 {
        v.parse()
            .unwrap_or_else(|_| usage(&format!("--{name} needs an unsigned integer, got {v:?}")))
    };
    let workload = match take("workload") {
        Some(w) => Workload::parse(&w).unwrap_or_else(|| usage(&format!("unknown workload {w:?}"))),
        None => usage("--workload is required"),
    };
    let (seed, seconds, trace) = if bless {
        (0, 0, false)
    } else {
        let seed = number(
            "seed",
            take("seed").unwrap_or_else(|| usage("--seed is required")),
        );
        let seconds = number(
            "seconds",
            take("seconds").unwrap_or_else(|| usage("--seconds is required")),
        );
        if seconds == 0 {
            usage("--seconds must be positive");
        }
        let trace = match take("trace").as_deref() {
            Some("0") | None => false,
            Some("1") => true,
            Some(v) => usage(&format!("--trace takes 0 or 1, got {v:?}")),
        };
        (seed, seconds, trace)
    };
    if let Some(extra) = flags.keys().next() {
        usage(&format!("unknown flag --{extra}"));
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
        bless,
    }
}

/// Committed fingerprints, keyed by `(workload, seed, ops)`.
type FingerprintTable = BTreeMap<(String, u64, usize), u64>;

/// Reads [`FINGERPRINTS`]: `workload seed ops hash` lines, `#` starts a
/// comment.
fn load_fingerprints() -> Result<FingerprintTable, String> {
    let text = std::fs::read_to_string(FINGERPRINTS).map_err(|e| format!("{FINGERPRINTS}: {e}"))?;
    parse_fingerprints(&text)
        .map_err(|line| format!("{FINGERPRINTS}:{line}: expected `workload seed ops hash`"))
}

/// Parses a fingerprint table; the error is the 1-based bad line number.
fn parse_fingerprints(text: &str) -> Result<FingerprintTable, usize> {
    let mut table = FingerprintTable::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = || n + 1;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, seed, ops, hash] = fields[..] else {
            return Err(bad());
        };
        let seed = seed.parse().map_err(|_| bad())?;
        let ops = ops.parse().map_err(|_| bad())?;
        let hash = u64::from_str_radix(hash, 16).map_err(|_| bad())?;
        table.insert((w.to_string(), seed, ops), hash);
    }
    Ok(table)
}

/// The fingerprint line for one pass of `list`.
fn fingerprint_line(list: &OpList, pass: &Pass) -> String {
    format!(
        "{} {} {} {:016x}",
        list.workload.name(),
        list.seed,
        list.len(),
        pass.fingerprint()
    )
}

fn bless(args: &Args) {
    let canary = OpList::new(args.workload, CANARY_SEED, CANARY_OPS);
    println!(
        "{}",
        fingerprint_line(&canary, &run_pass(&canary, &mut Quiet))
    );
    for seed in BLESS_SEEDS {
        let list = OpList::new(args.workload, seed, args.workload.ops());
        let pass = run_pass(&list, &mut Quiet);
        println!("{}", fingerprint_line(&list, &pass));
        eprintln!(
            "perfbench: blessed {} seed {seed} ({} establishments retried)",
            args.workload.name(),
            pass.retries
        );
    }
}

/// Runs passes of `list` until the next one would overrun `budget`, and at
/// least [`MIN_PASSES`].
fn run_passes(list: &OpList, budget: Duration) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(run_pass(list, &mut Quiet));
        let spent = start.elapsed();
        let per_pass = spent / passes.len() as u32;
        if passes.len() >= MIN_PASSES && spent + per_pass > budget {
            return passes;
        }
    }
}

/// The verdict of the output checks.
struct Checks {
    problems: Vec<String>,
}

impl Checks {
    /// Every pass must reproduce pass 0, and pass 0 must match the
    /// committed fingerprint when one exists for this list.
    fn passes(&mut self, list: &OpList, passes: &[Pass], table: &FingerprintTable) {
        let first = passes[0].fingerprint();
        for (p, pass) in passes.iter().enumerate().skip(1) {
            if pass.fingerprint() != first {
                self.problems.push(format!(
                    "pass {p} diverged from pass 0 ({:016x} vs {first:016x}): the simulation \
                     is not deterministic",
                    pass.fingerprint()
                ));
            }
        }
        let key = (list.workload.name().to_string(), list.seed, list.len());
        if let Some(&want) = table.get(&key) {
            if want != first {
                self.problems.push(format!(
                    "{} seed {} ({} ops): fingerprint {first:016x}, committed {want:016x}: \
                     simulated behaviour changed",
                    key.0, key.1, key.2
                ));
            }
        }
    }

    /// The canary list is committed for every workload and checked on
    /// every run, so the gate holds for seeds outside the table too.
    fn canary(&mut self, workload: Workload, table: &FingerprintTable) {
        let list = OpList::new(workload, CANARY_SEED, CANARY_OPS);
        let key = (workload.name().to_string(), CANARY_SEED, CANARY_OPS);
        match table.get(&key) {
            None => self
                .problems
                .push(format!("no committed canary fingerprint for {key:?}")),
            Some(_) => self.passes(&list, &[run_pass(&list, &mut Quiet)], table),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
];

/// The end-to-end metrics of an untraced run, plus op counts.
fn end_to_end(list: &OpList, passes: &[Pass]) -> (Vec<Metric>, usize, usize) {
    let times: Vec<Vec<Option<u64>>> = passes
        .iter()
        .map(|p| {
            if p.setup_error.is_some() {
                vec![None; list.len()]
            } else {
                p.ops
                    .iter()
                    .map(|op| op.outcome.as_ref().ok().map(|_| op.host_ns))
                    .collect()
            }
        })
        .collect();
    let per_op_ns = per_op(&times, list.workload.estimator());
    let mut ok: Vec<u64> = per_op_ns.iter().flatten().copied().collect();
    ok.sort_unstable();
    let failed = list.len() - ok.len();
    let setup_ns: Vec<u64> = passes.iter().map(|p| p.setup_ns).collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    let (per_s, p50, p90) = if ok.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        let total: u64 = ok.iter().sum();
        (
            ok.len() as f64 / (total as f64 / 1e9),
            ms(percentile(&ok, 50.0)),
            ms(percentile(&ok, 90.0)),
        )
    };
    let values = [
        per_s,
        p50,
        p90,
        fold(&setup_ns, list.workload.estimator()) as f64 / 1e9,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    (metrics, list.len(), failed)
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = parse_args();
    if args.bless {
        bless(&args);
        return;
    }
    let table = load_fingerprints().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2)
    });
    let list = OpList::new(args.workload, args.seed, args.workload.ops());
    let budget = Duration::from_secs(args.seconds);
    let mut checks = Checks {
        problems: Vec::new(),
    };
    let (traced, passes) = if args.trace {
        let mut run = layers::traced_run(&list, budget);
        checks.problems.append(&mut run.problems);
        let passes = std::mem::take(&mut run.passes);
        (Some(run), passes)
    } else {
        (None, run_passes(&list, budget))
    };
    let (metrics, attempted, failed) = match &traced {
        Some(run) => (run.metrics.clone(), list.len(), run.failed),
        None => end_to_end(&list, &passes),
    };
    checks.passes(&list, &passes, &table);
    checks.canary(args.workload, &table);
    if let Some(e) = passes.iter().find_map(|p| p.setup_error.as_ref()) {
        eprintln!("perfbench: set-up failed: {e}");
    }
    for (i, op) in passes[0].ops.iter().enumerate() {
        if let Err(e) = &op.outcome {
            eprintln!("perfbench: op {i} failed: {e}");
        }
    }

    eprintln!(
        "perfbench: {} seed {} — {} ops × {} passes, {} failed, {} establishments retried, \
         p90 with {} ops beyond it",
        list.workload.name(),
        list.seed,
        attempted,
        passes.len(),
        failed,
        passes[0].retries,
        samples_beyond(attempted, 90.0),
    );
    if let Some(run) = &traced {
        layers::print_table(run);
    } else {
        for (name, value, unit) in &metrics {
            eprintln!("  {name:<14} {value:>14.6} {unit}");
        }
    }
    for p in &checks.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = checks.problems.is_empty();
    print_result(correct, attempted, failed, &metrics);
    if !correct {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The end-to-end metrics are the contract `BENCHMARK.json` declares.
    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let section = &json[json.find("\"end_to_end\"").expect("end_to_end key")
            ..json.find("\"per_layer\"").expect("per_layer key")];
        assert_eq!(section.matches("\"name\"").count(), END_TO_END.len());
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn fingerprint_table_parses_and_rejects_malformed_lines() {
        let table = parse_fingerprints("# comment\nsession 7 200 00000000000000ff # tail\n\n");
        assert_eq!(
            table.unwrap().get(&("session".to_string(), 7, 200)),
            Some(&0xff)
        );
        assert_eq!(parse_fingerprints("\nsession 7 200\n").unwrap_err(), 2);
        assert_eq!(parse_fingerprints("session x 200 ff\n").unwrap_err(), 1);
        assert_eq!(parse_fingerprints("session 7 200 zz\n").unwrap_err(), 1);
    }

    #[test]
    fn the_committed_table_covers_every_canary() {
        let table = load_fingerprints().unwrap();
        for w in Workload::ALL {
            let key = (w.name().to_string(), CANARY_SEED, CANARY_OPS);
            assert!(table.contains_key(&key), "no canary for {key:?}");
        }
    }

    #[test]
    fn a_changed_simulation_fails_the_gate() {
        let list = OpList::new(Workload::Transmit, 4, 1);
        let pass = run_pass(&list, &mut Quiet);
        let key = ("transmit".to_string(), 4, 1);
        let mut table = FingerprintTable::new();
        table.insert(key.clone(), pass.fingerprint());
        let mut checks = Checks {
            problems: Vec::new(),
        };
        checks.passes(&list, &[pass.clone(), pass.clone()], &table);
        assert!(checks.problems.is_empty(), "{:?}", checks.problems);
        table.insert(key, pass.fingerprint() ^ 1);
        checks.passes(&list, &[pass], &table);
        assert_eq!(checks.problems.len(), 1);
    }
}
