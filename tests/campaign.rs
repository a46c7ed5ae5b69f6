//! Campaign robustness, proven on real channel sessions end to end:
//!
//! * kill/resume bit-identity — a campaign aborted mid-flight (crash
//!   injection after K durable checkpoints) and resumed at a *different*
//!   thread count reproduces the uninterrupted aggregate byte for byte;
//! * corrupt-checkpoint detection — one flipped byte in a shard file is a
//!   loud typed error carrying a replay recipe, never a silent recompute;
//! * a golden snapshot of the seed-2019 campaign aggregate (including the
//!   quantile-sketch buckets), pinned under the `MEE_BLESS=1` flow shared
//!   with `tests/golden.rs`.

use std::path::PathBuf;

use mee_covert::attack::channel::ChannelConfig;
use mee_covert::attack::experiments::run_channel_campaign;
use mee_covert::campaign::{CampaignError, CampaignPlan, CheckpointError};
use mee_covert::testbed;

/// One small real-session campaign: 4 end-to-end channel sessions (8 bits
/// each) over 3 shards — big enough to exercise resume, small enough for
/// the test suite.
fn plan(dir: Option<&PathBuf>) -> CampaignPlan {
    let mut p = CampaignPlan::new("test/channel-campaign", testbed::SEED, 4, 3);
    p.dir = dir.cloned();
    p
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mee_campaign_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_and_resume_matches_uninterrupted_on_real_sessions() {
    let cfg = ChannelConfig::sweep_setup();
    let ref_dir = tmp_dir("ref");
    let kill_dir = tmp_dir("kill");

    let mut reference_plan = plan(Some(&ref_dir));
    reference_plan.threads = Some(2);
    let reference = run_channel_campaign(reference_plan, &cfg, 8).unwrap();
    assert!(reference.is_complete());
    assert_eq!(reference.aggregate.sessions, 4);

    // Crash after the first durable checkpoint…
    let mut abort_plan = plan(Some(&kill_dir));
    abort_plan.threads = Some(2);
    abort_plan.abort_after = Some(1);
    match run_channel_campaign(abort_plan, &cfg, 8) {
        Err(CampaignError::Aborted { checkpointed }) => assert_eq!(checkpointed, 1),
        other => panic!("expected injected abort, got {other:?}"),
    }

    // …and resume at a different thread count.
    let mut resume_plan = plan(Some(&kill_dir));
    resume_plan.threads = Some(5);
    resume_plan.resume = true;
    let resumed = run_channel_campaign(resume_plan, &cfg, 8).unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.resumed.len(), 1);
    assert_eq!(
        reference.aggregate.render(),
        resumed.aggregate.render(),
        "resumed campaign must be byte-identical to the uninterrupted reference"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
}

#[test]
fn corrupt_checkpoint_fails_loudly_with_a_replay_recipe() {
    let cfg = ChannelConfig::sweep_setup();
    let dir = tmp_dir("corrupt");

    let mut p = plan(Some(&dir));
    p.threads = Some(2);
    run_channel_campaign(p, &cfg, 8).unwrap();

    // Flip one byte of shard 1's checkpoint.
    let victim = dir.join("shard-00001.ckpt");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();

    let mut p = plan(Some(&dir));
    p.threads = Some(2);
    p.resume = true;
    match run_channel_campaign(p, &cfg, 8) {
        Err(CampaignError::Checkpoint(e @ CheckpointError::Corrupt { .. })) => {
            let msg = e.to_string();
            assert!(msg.contains("replay:"), "no replay recipe in: {msg}");
            assert!(msg.contains("shard-00001.ckpt"), "no path in: {msg}");
        }
        other => panic!("expected a typed corruption error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- Golden snapshot (same bless flow as tests/golden.rs). ----

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("MEE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             `MEE_BLESS=1 cargo test --test campaign`",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden snapshot {name} drifted; if intentional, re-bless with \
         `MEE_BLESS=1 cargo test --test campaign` and commit the diff"
    );
}

#[test]
fn campaign_aggregate_matches_snapshot() {
    let cfg = ChannelConfig::sweep_setup();
    let mut p = plan(None);
    p.threads = Some(3);
    let outcome = run_channel_campaign(p, &cfg, 8).unwrap();
    assert!(outcome.is_complete());
    let mut s = format!(
        "# channel campaign seed={} sessions=4 shards=3 bits=8\n{}",
        testbed::SEED,
        outcome.aggregate.render()
    );
    // The full quantile sketches, so bucket-level drift is visible too.
    for (name, agg) in &outcome.aggregate.series {
        s.push_str(&format!("sketch {name} {}\n", agg.sketch.encode()));
    }
    check_golden("campaign_aggregate.txt", &s);
}
