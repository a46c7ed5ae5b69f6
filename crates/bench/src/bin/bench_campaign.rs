//! The channel-pool benchmark: a sharded, checkpointed campaign of
//! `experiments::channel_point` sessions run through `mee-campaign`,
//! reported as one deterministic JSON artifact.
//!
//! ```text
//! cargo run --release -p mee-bench --bin bench-campaign -- \
//!     [seed] [scale] [--threads N] [--shards N] [--dir PATH] [--resume] \
//!     [--abort-after K] [--out PATH]
//! ```
//!
//! * `scale` multiplies the session count (16×) and shard count (8×);
//! * `--shards` / `MEE_CAMPAIGN_SHARDS` override the shard count;
//! * `--dir` / `MEE_CAMPAIGN_DIR` name the checkpoint directory (no
//!   directory ⇒ no checkpointing);
//! * `--resume` continues a killed campaign from its checkpoints —
//!   bit-identical to an uninterrupted run (ci.sh proves this with `cmp`);
//! * `--abort-after K` injects a crash after K durable checkpoints (exit
//!   status 3), which is how ci.sh kills the campaign deterministically.
//!
//! Exit status: 0 on a complete campaign, 1 when shards were quarantined
//! (the exact missing sessions are on stderr), 2 on usage errors, 3 on an
//! injected abort.

use mee_attack::channel::ChannelConfig;
use mee_attack::experiments::run_channel_campaign;
use mee_bench::campaign::CampaignReport;
use mee_bench::HarnessArgs;
use mee_campaign::{CampaignError, CampaignPlan};

/// The campaign-specific flags, peeled off before the shared
/// [`HarnessArgs`] grammar sees the rest.
struct CampaignArgs {
    shards: Option<usize>,
    dir: Option<std::path::PathBuf>,
    resume: bool,
    abort_after: Option<usize>,
    rest: Vec<String>,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!(
        "{msg} (usage: [seed] [scale] [--threads N] [--shards N>=1] [--dir PATH] \
         [--resume] [--abort-after K>=1] [--out PATH])"
    );
    std::process::exit(2);
}

/// A malformed `MEE_CAMPAIGN_*` knob is a usage error, like a bad flag.
fn knob_exit<T>(e: mee_rng::env_knob::EnvKnobError) -> T {
    usage_exit(&e.to_string())
}

fn parse_campaign_args<I: IntoIterator<Item = String>>(args: I) -> CampaignArgs {
    let mut out = CampaignArgs {
        shards: None,
        dir: None,
        resume: false,
        abort_after: None,
        rest: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(s) = it.next() {
        match s.as_str() {
            "--shards" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_exit("--shards needs a value"));
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => out.shards = Some(n),
                    _ => usage_exit(&format!("invalid --shards value {v:?}")),
                }
            }
            "--dir" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_exit("--dir needs a path"));
                out.dir = Some(std::path::PathBuf::from(v));
            }
            "--resume" => out.resume = true,
            "--abort-after" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_exit("--abort-after needs a value"));
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => out.abort_after = Some(n),
                    _ => usage_exit(&format!("invalid --abort-after value {v:?}")),
                }
            }
            _ => out.rest.push(s),
        }
    }
    out
}

fn main() {
    let campaign_args = parse_campaign_args(std::env::args().skip(1));
    let args = match HarnessArgs::parse(campaign_args.rest.clone()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let sessions = 16 * args.scale;
    // Precedence mirrors the rest of the workspace: explicit flag beats
    // environment knob beats scale-derived default. Both knobs go through
    // the strict-parse grammar; a malformed value is a usage error.
    let shards = match campaign_args.shards {
        Some(n) => n,
        None => mee_campaign::shards_from_env()
            .unwrap_or_else(knob_exit)
            .unwrap_or(8 * args.scale),
    };
    let dir = match campaign_args.dir.clone() {
        Some(dir) => Some(dir),
        None => mee_campaign::dir_from_env().unwrap_or_else(knob_exit),
    };
    let bits = 16 * args.scale;

    let mut plan = CampaignPlan::new("channel/campaign", args.seed, sessions, shards)
        .resume(campaign_args.resume);
    plan.threads = args.threads;
    plan.dir = dir;
    plan.abort_after = campaign_args.abort_after;

    let cfg = ChannelConfig::sweep_setup();
    let outcome = match run_channel_campaign(plan, &cfg, bits) {
        Ok(outcome) => outcome,
        Err(CampaignError::Aborted { checkpointed }) => {
            eprintln!(
                "campaign aborted by injection after {checkpointed} checkpointed shard(s); \
                 rerun with --resume to continue"
            );
            std::process::exit(3);
        }
        Err(e @ (CampaignError::InvalidPlan(_) | CampaignError::Threads(_))) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    let complete = outcome.is_complete();
    let report = CampaignReport {
        name: "channel/campaign".into(),
        root_seed: args.seed,
        sessions_planned: sessions,
        shards,
        outcome,
    };
    report.emit();
    let path = args.out_or("BENCH_campaign.json");
    if let Err(e) = report.write(&path) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    if !complete {
        // Graceful degradation is still a failed invocation: the numbers
        // are published, the exact missing sessions are on stderr, and the
        // exit status says so.
        std::process::exit(1);
    }
}
