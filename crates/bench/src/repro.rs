//! The experiment table behind the `repro` binary: every figure of the
//! paper and every extension experiment, by name, with its trial counts
//! written once.
//!
//! ```text
//! cargo run --release -p mee-bench --bin repro -- <experiment> [seed] [scale]
//! ```
//!
//! `repro all` runs the [`Experiment::in_all`] subset in table order, under
//! one `=== seed S, scale K ===` header and with a blank line after each
//! report; EXPERIMENTS.md is generated from that output.

use mee_attack::experiments::{
    fig7::PAPER_WINDOWS, run_ablation, run_fig4, run_fig5, run_fig6, run_fig7, run_fig8,
    run_headline, run_mitigation, run_stealth, run_timers, run_wide,
};
use mee_attack::recon::eviction::find_eviction_set;
use mee_attack::recon::profile_mee_cache;
use mee_attack::setup::AttackSetup;
use mee_attack::threshold::LatencyClassifier;
use mee_types::ModelError;

use crate::HarnessArgs;

/// One regenerable experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The name `repro` selects it by.
    pub name: &'static str,
    /// Whether `repro all` runs it.
    pub in_all: bool,
    /// Runs the experiment at `(seed, scale)` and returns its report.
    pub run: fn(u64, usize) -> Result<String, ModelError>,
}

/// Every experiment, in `repro all` order. `scale` multiplies each trial
/// count or payload.
pub const EXPERIMENTS: [Experiment; 13] = [
    Experiment {
        name: "fig4",
        in_all: true,
        // The paper's 100 trials per point.
        run: |seed, s| Ok(run_fig4(seed, 100 * s)?.to_string()),
    },
    Experiment {
        name: "fig5",
        in_all: true,
        run: |seed, s| Ok(run_fig5(seed, 64 * s, 2)?.to_string()),
    },
    Experiment {
        name: "fig6",
        in_all: true,
        // Panel (a) shows 16 bits, (b) shows ~30 probes in the paper.
        run: |seed, s| Ok(run_fig6(seed, 16 * s)?.to_string()),
    },
    Experiment {
        name: "fig7",
        in_all: true,
        run: |seed, s| Ok(run_fig7(seed, 1024 * s, &PAPER_WINDOWS)?.to_string()),
    },
    Experiment {
        name: "fig8",
        in_all: true,
        run: |seed, s| Ok(run_fig8(seed, 128 * s)?.to_string()),
    },
    Experiment {
        name: "headline",
        in_all: true,
        run: |seed, s| Ok(run_headline(seed, 4096 * s)?.to_string()),
    },
    Experiment {
        name: "algo1",
        in_all: false,
        run: algo1,
    },
    Experiment {
        name: "timers",
        in_all: true,
        run: |seed, s| Ok(run_timers(seed, 32 * s)?.to_string()),
    },
    Experiment {
        name: "ablation",
        in_all: true,
        run: |seed, s| Ok(run_ablation(seed, 512 * s)?.to_string()),
    },
    Experiment {
        name: "mitigation",
        in_all: true,
        run: |seed, s| Ok(run_mitigation(seed, 512 * s, &[8, 6, 4, 2])?.to_string()),
    },
    Experiment {
        name: "stealth",
        in_all: true,
        run: |seed, s| Ok(run_stealth(seed, 512 * s)?.to_string()),
    },
    Experiment {
        name: "profile",
        in_all: false,
        run: profile,
    },
    Experiment {
        name: "wide",
        in_all: true,
        run: |seed, s| Ok(run_wide(seed, 512 * s, &[1, 2, 4, 8])?.to_string()),
    },
];

/// Algorithm 1 end to end: the reverse-engineered MEE-cache associativity
/// (§4.2: 8 ways). Fixed size, so `scale` is unused.
fn algo1(seed: u64, _scale: usize) -> Result<String, ModelError> {
    let mut setup = AttackSetup::new(seed)?;
    let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);
    let candidates = setup.trojan.candidates(160, 0);
    let mut cpu = setup.trojan_handle();
    let result = find_eviction_set(&mut cpu, &candidates, &classifier, 3)?;
    let ways = result.associativity();
    Ok(format!(
        "Algorithm 1 — eviction address set discovery (paper §4.2)\n\
         candidate addresses : {}\n\
         index address set   : {}\n\
         eviction address set: {ways}\n\
         => MEE cache associativity: {ways} ways (paper: 8)\n\
         => with the 64 KiB capacity of Figure 4: {} sets of 64 B lines\n",
        candidates.len(),
        result.index_set_size,
        64 * 1024 / 64 / ways.max(1)
    ))
}

/// The full §4 reverse-engineering pipeline: the inferred MEE cache
/// organization.
fn profile(seed: u64, scale: usize) -> Result<String, ModelError> {
    let mut setup = AttackSetup::new(seed)?;
    let profile = profile_mee_cache(&mut setup, 20 * scale, 3)?;
    let mut out = format!(
        "Reverse-engineered MEE cache organization (paper §4):\n  {profile}\n  \
         paper's answer: 64 KiB, 8-way set-associative, 128 sets of 64 B lines\n"
    );
    if let Some(k) = profile.sweep_saturation {
        out.push_str(&format!(
            "  Figure-4 sweep saturated at {k} candidates (consistency: {:?})\n",
            profile.sweep_consistent()
        ));
    }
    Ok(out)
}

/// What one `repro` invocation runs.
#[derive(Debug)]
pub enum Selection {
    /// One named experiment.
    One(&'static Experiment),
    /// The `repro all` subset.
    All,
}

/// The experiments `repro all` runs, in order.
pub fn all() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter().filter(|e| e.in_all)
}

/// The usage line, listing every experiment name.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: repro <experiment> [seed:u64] [scale:usize>=1] (experiments: {}, all)",
        names.join(", ")
    )
}

/// Parses `<experiment> [seed] [scale]`.
///
/// # Errors
///
/// Returns the message to print before exiting with status 2: the usage
/// line for a missing or unknown experiment or for any flag (`repro`
/// honours none, `--threads` and `--out` included), or the
/// [`HarnessArgs`] error for a malformed seed or scale.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<(Selection, HarnessArgs), String> {
    let mut args = args.into_iter();
    let name = args.next().ok_or_else(usage)?;
    let selection = if name == "all" {
        Selection::All
    } else {
        match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => Selection::One(e),
            None => return Err(format!("unknown experiment {name:?}\n{}", usage())),
        }
    };
    let refuse = |flag: &str| format!("repro does not take {flag}\n{}", usage());
    let harness = HarnessArgs::parse(args).map_err(|e| match e.arg {
        "flag" => refuse(&e.value),
        _ => e.to_string(),
    })?;
    let ignored = [
        ("--threads", harness.threads.is_some()),
        ("--out", harness.out.is_some()),
    ];
    if let Some((flag, _)) = ignored.iter().find(|(_, given)| *given) {
        return Err(refuse(flag));
    }
    Ok((selection, harness))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn names_are_unique_and_cover_every_experiment() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        let mut expected = [
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "headline",
            "algo1",
            "timers",
            "ablation",
            "mitigation",
            "stealth",
            "profile",
            "wide",
        ];
        expected.sort_unstable();
        assert_eq!(names, expected);
    }

    #[test]
    fn all_runs_the_experiments_md_list_in_order() {
        let names: Vec<&str> = all().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "headline",
                "timers",
                "ablation",
                "mitigation",
                "stealth",
                "wide"
            ]
        );
    }

    #[test]
    fn names_select_their_experiment() {
        let (sel, harness) = parse(args(&["fig7", "7", "2"])).unwrap();
        assert!(matches!(sel, Selection::One(e) if e.name == "fig7"));
        assert_eq!((harness.seed, harness.scale), (7, 2));
        let (sel, harness) = parse(args(&["all"])).unwrap();
        assert!(matches!(sel, Selection::All));
        assert_eq!(harness, HarnessArgs::default());
    }

    #[test]
    fn unknown_and_missing_names_are_usage_errors() {
        for bad in [args(&[]), args(&["fig9"]), args(&["2019", "1"])] {
            let e = parse(bad.clone()).unwrap_err();
            assert!(e.contains("usage: repro <experiment>"), "{bad:?}: {e}");
            for exp in &EXPERIMENTS {
                assert!(e.contains(exp.name), "{bad:?}: usage misses {}", exp.name);
            }
        }
    }

    #[test]
    fn flags_repro_ignores_are_usage_errors() {
        for flags in [
            &["--threads", "3"][..],
            &["--out", "x.json"],
            &["--trace", "64"],
            &["--dir", "runs"],
        ] {
            let mut argv = args(&["fig8", "2019", "1"]);
            argv.extend(args(flags));
            let e = parse(argv).unwrap_err();
            assert!(e.contains(flags[0]), "{flags:?}: {e}");
            assert!(e.contains("usage: repro <experiment>"), "{flags:?}: {e}");
        }
        let (sel, harness) = parse(args(&["fig8", "2019", "1"])).unwrap();
        assert!(matches!(sel, Selection::One(e) if e.name == "fig8"));
        assert_eq!((harness.seed, harness.scale), (2019, 1));
    }

    #[test]
    fn malformed_seed_and_scale_are_rejected() {
        assert!(parse(args(&["fig4", "x"])).unwrap_err().contains("seed"));
        assert!(parse(args(&["fig4", "7", "0"]))
            .unwrap_err()
            .contains("scale"));
    }
}
