#![warn(missing_docs)]
//! Shared plumbing for the `mee-bench` binaries: `repro`, which
//! regenerates the paper's figures and experiments (see [`repro`]), and
//! the three artifact writers `bench-resilience`, `bench-campaign` and
//! `bench-trace`. Host-speed measurement lives in the separate
//! `perfbench` package.
//!
//! Every binary accepts `[seed] [scale]` positional arguments (after
//! `repro`'s experiment name):
//!
//! * `seed` (default 2019, the paper's year) — all machine RNGs derive
//!   from it;
//! * `scale` (default 1) — multiplies trial counts / payload sizes, so
//!   `cargo run -p mee-bench --bin repro -- fig7 7 4` runs a 4× heavier
//!   sweep.
//!
//! Malformed arguments are hard errors: a typo'd sweep must never
//! masquerade as the default run.

pub mod campaign;
pub mod repro;
pub mod resilience;

/// Parsed command-line arguments for a `mee-bench` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// RNG seed for the whole experiment.
    pub seed: u64,
    /// Work multiplier (≥ 1).
    pub scale: usize,
    /// Worker threads for sweep-based binaries (`--threads N`); `None`
    /// defers to `MEE_SWEEP_THREADS` or the host's available parallelism.
    pub threads: Option<usize>,
    /// Output artifact path override (`--out <path>`); `None` keeps each
    /// binary's default (stdout only, or its conventional `BENCH_*.json`).
    pub out: Option<std::path::PathBuf>,
}

/// A rejected command-line argument: which position, and the bad value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    /// Name of the argument that failed to parse (`seed`, `scale`,
    /// `threads`, `out`, or `flag` for a flag outside the grammar).
    pub arg: &'static str,
    /// The offending raw value.
    pub value: String,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} argument {:?} (usage: [seed:u64] [scale:usize>=1] \
             [--threads N>=1] [--out PATH])",
            self.arg, self.value
        )
    }
}

impl std::error::Error for ArgError {}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            seed: 2019, // the paper's year
            scale: 1,
            threads: None,
            out: None,
        }
    }
}

impl HarnessArgs {
    /// Parses `[seed] [scale] [--threads N] [--out PATH]` from an iterator
    /// of arguments (typically `std::env::args().skip(1)`). Flags may
    /// appear anywhere; the positionals keep their order.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] naming the offending argument when `seed`
    /// is not a `u64`, `scale` is not a positive integer, `--threads` is
    /// missing/zero/non-numeric, `--out` is missing its path, or any other
    /// `--` flag appears (a binary with flags of its own peels them off
    /// first). Omitted arguments take their defaults.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut out = HarnessArgs::default();
        let mut positionals = Vec::new();
        let mut it = args.into_iter();
        while let Some(s) = it.next() {
            if s == "--threads" {
                let v = it.next().ok_or(ArgError {
                    arg: "threads",
                    value: "<missing>".into(),
                })?;
                let threads: usize = v.parse().map_err(|_| ArgError {
                    arg: "threads",
                    value: v.clone(),
                })?;
                if threads == 0 {
                    return Err(ArgError {
                        arg: "threads",
                        value: v,
                    });
                }
                out.threads = Some(threads);
            } else if s == "--out" {
                let v = it.next().ok_or(ArgError {
                    arg: "out",
                    value: "<missing>".into(),
                })?;
                out.out = Some(std::path::PathBuf::from(v));
            } else if s.starts_with("--") {
                return Err(ArgError {
                    arg: "flag",
                    value: s,
                });
            } else {
                positionals.push(s);
            }
        }
        let mut it = positionals.into_iter();
        if let Some(s) = it.next() {
            out.seed = s.parse().map_err(|_| ArgError {
                arg: "seed",
                value: s,
            })?;
        }
        if let Some(s) = it.next() {
            let scale: usize = s.parse().map_err(|_| ArgError {
                arg: "scale",
                value: s.clone(),
            })?;
            if scale == 0 {
                return Err(ArgError {
                    arg: "scale",
                    value: s,
                });
            }
            out.scale = scale;
        }
        Ok(out)
    }

    /// Parses from the process arguments, exiting with a message on
    /// stderr (status 2) if they are malformed.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// The output artifact path: `--out` if given, else `default` — the
    /// binary's conventional `BENCH_*.json` name in the working directory.
    pub fn out_or(&self, default: &str) -> std::path::PathBuf {
        self.out
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = HarnessArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(a, HarnessArgs::default());
        assert_eq!((a.seed, a.scale), (2019, 1));
        assert_eq!(a.threads, None);
        assert_eq!(a.out, None);
    }

    #[test]
    fn parses_seed_and_scale() {
        let a = HarnessArgs::parse(vec!["7".into(), "3".into()]).unwrap();
        assert_eq!(
            a,
            HarnessArgs {
                seed: 7,
                scale: 3,
                ..HarnessArgs::default()
            }
        );
    }

    #[test]
    fn seed_alone_is_accepted() {
        let a = HarnessArgs::parse(vec!["99".into()]).unwrap();
        assert_eq!(
            a,
            HarnessArgs {
                seed: 99,
                ..HarnessArgs::default()
            }
        );
    }

    #[test]
    fn threads_flag_parses_anywhere() {
        let a = HarnessArgs::parse(vec!["--threads".into(), "4".into()]).unwrap();
        assert_eq!(
            a,
            HarnessArgs {
                threads: Some(4),
                ..HarnessArgs::default()
            }
        );
        let b = HarnessArgs::parse(vec!["7".into(), "--threads".into(), "2".into(), "3".into()])
            .unwrap();
        assert_eq!(
            b,
            HarnessArgs {
                seed: 7,
                scale: 3,
                threads: Some(2),
                ..HarnessArgs::default()
            }
        );
    }

    #[test]
    fn out_flag_parses_and_defaults() {
        let a = HarnessArgs::parse(vec!["--out".into(), "/tmp/x.json".into()]).unwrap();
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("/tmp/x.json")));
        assert_eq!(
            a.out_or("BENCH_x.json"),
            std::path::PathBuf::from("/tmp/x.json")
        );
        let b = HarnessArgs::default();
        assert_eq!(
            b.out_or("BENCH_x.json"),
            std::path::PathBuf::from("BENCH_x.json")
        );
    }

    #[test]
    fn out_flag_requires_a_path() {
        let e = HarnessArgs::parse(vec!["--out".into()]).unwrap_err();
        assert_eq!(e.arg, "out");
        assert_eq!(e.value, "<missing>");
    }

    /// A flag outside the shared grammar is an error, not a positional
    /// or a silently ignored option: `--trace` belongs to `bench-trace`.
    #[test]
    fn unknown_flags_are_rejected() {
        for flag in ["--trace", "--dir", "--"] {
            let e = HarnessArgs::parse(vec!["7".into(), flag.into(), "64".into()]).unwrap_err();
            assert_eq!((e.arg, e.value.as_str()), ("flag", flag));
        }
    }

    #[test]
    fn threads_flag_rejects_garbage() {
        for bad in [
            vec!["--threads".into()],
            vec!["--threads".into(), "zero".into()],
            vec!["--threads".into(), "0".into()],
        ] {
            let e = HarnessArgs::parse(bad).unwrap_err();
            assert_eq!(e.arg, "threads");
        }
    }

    #[test]
    fn malformed_seed_is_an_error() {
        let e = HarnessArgs::parse(vec!["x".into()]).unwrap_err();
        assert_eq!(e.arg, "seed");
        assert_eq!(e.value, "x");
        assert!(e.to_string().contains("seed"));
    }

    #[test]
    fn malformed_scale_is_an_error() {
        let e = HarnessArgs::parse(vec!["7".into(), "wide".into()]).unwrap_err();
        assert_eq!(e.arg, "scale");
        assert_eq!(e.value, "wide");
    }

    #[test]
    fn zero_scale_is_an_error() {
        // Previously clamped to 1 silently; a zero-work sweep is a typo.
        let e = HarnessArgs::parse(vec!["7".into(), "0".into()]).unwrap_err();
        assert_eq!(e.arg, "scale");
        assert_eq!(e.value, "0");
    }

    #[test]
    fn negative_seed_is_an_error() {
        let e = HarnessArgs::parse(vec!["-3".into()]).unwrap_err();
        assert_eq!(e.arg, "seed");
    }
}
