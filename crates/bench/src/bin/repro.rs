//! Regenerates one figure or experiment of the paper, or every one
//! EXPERIMENTS.md is generated from.
//!
//! ```text
//! cargo run --release -p mee-bench --bin repro -- <experiment> [seed] [scale]
//! ```
//!
//! The experiment names are in [`mee_bench::repro::EXPERIMENTS`]. A missing
//! or unknown name, a malformed seed or scale, or a `--threads`, `--out` or
//! `--trace` flag exits 2 with a usage line.

use mee_bench::repro::{self, Experiment, Selection};

fn run(exp: &Experiment, seed: u64, scale: usize) -> String {
    match (exp.run)(seed, scale) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{} failed: {e}", exp.name);
            std::process::exit(1);
        }
    }
}

fn main() {
    let (selection, args) = match repro::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let (seed, scale) = (args.seed, args.scale);
    match selection {
        Selection::One(exp) => print!("{}", run(exp, seed, scale)),
        Selection::All => {
            println!("=== seed {seed}, scale {scale} ===\n");
            for exp in repro::all() {
                print!("{}\n\n", run(exp, seed, scale));
            }
        }
    }
}
