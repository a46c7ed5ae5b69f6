//! The spec-harness CLI: runs the exhaustive and/or property tiers, replays
//! counterexample recipes, and lists the invariant registry.
//!
//! Exit codes: 0 = all invariants hold, 1 = counterexamples found,
//! 2 = usage error.

use std::process::ExitCode;

use mee_rng::prop::PropConfig;
use mee_spec::{property, replay, run_exhaustive, run_invariant, Budget, INVARIANTS};

const USAGE: &str = "\
usage: mee-spec [--tier exhaustive|property|all] [--budget smoke|full]
                [--invariant NAME] [--replay RECIPE] [--list]

  --tier       which tier(s) to run (default: all)
  --budget     exhaustive-tier size (default: full)
  --invariant  restrict the exhaustive tier to one named invariant
  --replay     re-run one counterexample recipe (`invariant|config|trace`)
  --list       print the invariant registry and exit

The property tier honors MEE_PROP_CASES (case count) and MEE_PROP_SEED
(base seed, or the single case to replay).";

struct Args {
    tier: String,
    budget: String,
    invariant: Option<String>,
    replay: Option<String>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tier: "all".into(),
        budget: "full".into(),
        invariant: None,
        replay: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--tier" => args.tier = value("--tier")?,
            "--budget" => args.budget = value("--budget")?,
            "--invariant" => args.invariant = Some(value("--invariant")?),
            "--replay" => args.replay = Some(value("--replay")?),
            "--list" => args.list = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.list {
        for name in INVARIANTS {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }

    if let Some(recipe) = &args.replay {
        return match replay(recipe) {
            Ok(None) => {
                println!("recipe passes: the invariant holds on this trace");
                ExitCode::SUCCESS
            }
            Ok(Some(cx)) => {
                println!("{cx}");
                ExitCode::from(1)
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::from(2)
            }
        };
    }

    let budget = match args.budget.as_str() {
        "smoke" => Budget::smoke(),
        "full" => Budget::full(),
        other => {
            eprintln!("error: unknown budget {other:?} (expected smoke|full)\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (run_ex, run_prop) = match args.tier.as_str() {
        "exhaustive" => (true, false),
        "property" => (false, true),
        "all" => (true, true),
        other => {
            eprintln!(
                "error: unknown tier {other:?} (expected exhaustive|property|all)\n\n{USAGE}"
            );
            return ExitCode::from(2);
        }
    };

    let mut found = Vec::new();
    if run_ex {
        let result = match &args.invariant {
            Some(name) => match run_invariant(name, &budget) {
                Ok(cxs) => cxs,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::from(2);
                }
            },
            None => run_exhaustive(&budget),
        };
        println!(
            "exhaustive tier ({}): {} counterexample(s)",
            args.budget,
            result.len()
        );
        found.extend(result);
    }
    if run_prop {
        let cfg = PropConfig::from_env(property::DEFAULT_CASES);
        let result = mee_spec::run_property_tier(&cfg);
        match cfg.replay {
            Some(seed) => println!(
                "property tier (replaying single case, seed {seed}): {} counterexample(s)",
                result.len()
            ),
            None => println!(
                "property tier ({} cases, seed {}): {} counterexample(s)",
                cfg.cases,
                cfg.seed,
                result.len()
            ),
        }
        found.extend(result);
    }

    if found.is_empty() {
        println!("all invariants hold");
        ExitCode::SUCCESS
    } else {
        for cx in &found {
            println!("{cx}");
        }
        ExitCode::from(1)
    }
}
