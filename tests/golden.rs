//! Golden-trace regression tests: the seed-2019 Figure 5 latency histogram
//! and Figure 6 BER table are pinned to committed snapshots, so *any*
//! behavioural drift in the simulator — timing model, replacement policy,
//! RNG stream layout — shows up as a diff, not as a silently shifted
//! statistic that the tolerance-based tests still accept.
//!
//! When a change is intentional, regenerate the snapshots with:
//!
//! ```text
//! MEE_BLESS=1 cargo test --test golden
//! ```
//!
//! and commit the updated files under `tests/golden/` with the change that
//! caused them.

use std::fmt::Write as _;
use std::path::PathBuf;

use mee_covert::attack::channel::ChannelConfig;
use mee_covert::attack::experiments::{run_fig5, run_fig6_with, run_resilience};
use mee_covert::engine::HitLevel;
use mee_covert::testbed;

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
             `MEE_BLESS=1 cargo test --test golden`",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden snapshot {name} drifted; if intentional, re-bless with \
         `MEE_BLESS=1 cargo test --test golden` and commit the diff"
    );
}

#[test]
fn fig5_latency_histogram_matches_snapshot() {
    let r = run_fig5(testbed::SEED, 24, 2).unwrap();
    let pooled = r.pooled();
    let mut s = String::new();
    writeln!(s, "# fig5 seed={} samples=24 passes=2", testbed::SEED).unwrap();
    let hist = pooled.level_histogram();
    for level in HitLevel::ALL {
        let mean = pooled
            .mean_at(level)
            .map(|c| c.raw().to_string())
            .unwrap_or_else(|| "-".into());
        writeln!(
            s,
            "level {} count {} mean {}",
            level.label(),
            hist[level.ladder_index()],
            mean
        )
        .unwrap();
    }
    // The latency histogram itself, 40-cycle buckets (the figure's x-axis).
    let mut buckets = std::collections::BTreeMap::new();
    for sample in &pooled.samples {
        *buckets
            .entry(sample.latency.raw() / 40 * 40)
            .or_insert(0u32) += 1;
    }
    for (lo, count) in buckets {
        writeln!(s, "bucket {lo} count {count}").unwrap();
    }
    check_golden("fig5_latency_histogram.txt", &s);
}

#[test]
fn fig6_ber_table_matches_snapshot() {
    let r = run_fig6_with(testbed::SEED, 24, &ChannelConfig::sweep_setup()).unwrap();
    let mut s = String::new();
    writeln!(
        s,
        "# fig6 seed={} bits=24 profile=sweep_setup",
        testbed::SEED
    )
    .unwrap();
    writeln!(
        s,
        "prime_probe bits {} errors {} rate {:.4}",
        r.prime_probe.sent.len(),
        r.prime_probe.errors.count(),
        r.prime_probe.errors.rate()
    )
    .unwrap();
    writeln!(
        s,
        "this_work bits {} errors {} rate {:.4}",
        r.this_work.sent.len(),
        r.this_work.errors.count(),
        r.this_work.errors.rate()
    )
    .unwrap();
    // Per-bit decode series: sent vs received, both panels. This is the
    // figure's raw data — a single flipped bit anywhere is a diff.
    for (i, (&sent, &got)) in r
        .prime_probe
        .sent
        .iter()
        .zip(&r.prime_probe.received)
        .enumerate()
    {
        writeln!(s, "pp bit {i} sent {} got {}", sent as u8, got as u8).unwrap();
    }
    for (i, (&sent, &got)) in r
        .this_work
        .sent
        .iter()
        .zip(&r.this_work.received)
        .enumerate()
    {
        writeln!(s, "ours bit {i} sent {} got {}", sent as u8, got as u8).unwrap();
    }
    check_golden("fig6_ber_table.txt", &s);
}

/// Pins the whole seed-2019 resilience table — fault counts, raw/robust
/// BER, residuals, retransmissions, ladder escalations, final windows and
/// goodput for all three plans. Any drift in the fault injector, the
/// recovery stack, or their RNG streams shows up as a table diff.
#[test]
fn resilience_table_matches_snapshot() {
    let r = run_resilience(testbed::SEED, 48).unwrap();
    let mut s = String::new();
    writeln!(s, "# resilience seed={} bits=48", testbed::SEED).unwrap();
    write!(s, "{r}").unwrap();
    check_golden("resilience_table.txt", &s);
}

/// FNV-1a 64-bit — a tiny, dependency-free content hash for pinning the
/// full event log without committing megabytes of snapshot.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pins the seed-2019 traced session in compact form: the event count,
/// the FNV-64 hash of the complete JSON-lines event log, and the first 64
/// log lines verbatim. The hash catches *any* drift (event order, field
/// values, formatting) across the whole log; the head keeps the diff
/// readable for the common case of a change near session start.
#[test]
fn event_trace_matches_snapshot() {
    use mee_covert::attack::channel::{random_bits, ChannelConfig, Session};
    use mee_covert::attack::setup::AttackSetup;

    let mut setup = AttackSetup::new(testbed::SEED).unwrap();
    setup.machine.enable_tracing(1 << 20);
    let session = Session::establish(&mut setup, &ChannelConfig::sweep_setup()).unwrap();
    let payload = random_bits(32, testbed::SEED);
    let _ = session.transmit(&mut setup, &payload).unwrap();

    let log = setup.machine.obs().event_log();
    let dropped = setup.machine.obs().ring().unwrap().dropped();
    assert_eq!(dropped, 0, "golden ring must retain the whole session");

    let mut s = String::new();
    writeln!(s, "# event trace seed={} bits=32", testbed::SEED).unwrap();
    writeln!(s, "events={}", log.lines().count()).unwrap();
    writeln!(s, "fnv64={:016x}", fnv64(log.as_bytes())).unwrap();
    writeln!(s, "# first 64 events:").unwrap();
    for line in log.lines().take(64) {
        writeln!(s, "{line}").unwrap();
    }
    check_golden("event_trace.txt", &s);
}

/// Pins the channels no figure golden covers step for step: the LLC
/// Prime+Probe channel (quiet and noisy machine), the multi-lane wide
/// channel (2 and 4 lanes) and the Prime+Probe baseline over the MEE cache
/// (Fig. 6a; its golden pins the decoded bits but not the clocks). Per run:
/// the FNV-64 hash of the received bits, the final spy and trojan core
/// clocks, and the MEE and LLC statistics — so a shifted step, access or
/// flush anywhere in a channel's actors is a diff.
#[test]
fn channels_match_snapshot() {
    use mee_covert::attack::channel::llc::LlcSession;
    use mee_covert::attack::channel::prime_probe::PrimeProbeSession;
    use mee_covert::attack::channel::{alternating_bits, random_bits, WideSession};
    use mee_covert::attack::setup::AttackSetup;
    use mee_covert::types::Cycles;

    fn record(s: &mut String, label: &str, setup: &AttackSetup, received: &[bool]) {
        let bytes: Vec<u8> = received.iter().map(|&b| u8::from(b)).collect();
        let mee = setup.machine.mee().stats();
        let llc = setup.machine.llc().stats();
        writeln!(
            s,
            "{label} bits {} fnv64 {:016x} spy_clock {} trojan_clock {}",
            received.len(),
            fnv64(&bytes),
            setup.machine.core_now(setup.spy.core).raw(),
            setup.machine.core_now(setup.trojan.core).raw()
        )
        .unwrap();
        writeln!(
            s,
            "{label} mee reads {} writes {} hits_by_level {:?}",
            mee.reads, mee.writes, mee.hits_by_level
        )
        .unwrap();
        writeln!(
            s,
            "{label} llc hits {} misses {} evictions {} invalidations {}",
            llc.hits, llc.misses, llc.evictions, llc.invalidations
        )
        .unwrap();
    }

    let seed = testbed::SEED;
    let mut s = String::new();
    writeln!(s, "# channels seed={seed}").unwrap();
    for (label, quiet) in [("llc_quiet", true), ("llc_noisy", false)] {
        let mut setup = if quiet {
            AttackSetup::quiet(seed).unwrap()
        } else {
            AttackSetup::new(seed).unwrap()
        };
        let session = LlcSession::establish(&mut setup, Cycles::new(4_000)).unwrap();
        let out = session
            .transmit(&mut setup, &random_bits(128, seed))
            .unwrap();
        record(&mut s, label, &setup, &out.received);
    }
    for lanes in [2, 4] {
        let mut setup = AttackSetup::new(seed).unwrap();
        let wide =
            WideSession::establish(&mut setup, &ChannelConfig::sweep_setup(), lanes).unwrap();
        let out = wide.transmit(&mut setup, &random_bits(64, seed)).unwrap();
        record(&mut s, &format!("wide{lanes}"), &setup, &out.received);
    }
    let mut setup = AttackSetup::new(seed).unwrap();
    let pp = PrimeProbeSession::establish(&mut setup, &ChannelConfig::sweep_setup()).unwrap();
    let out = pp.transmit(&mut setup, &alternating_bits(24)).unwrap();
    record(&mut s, "prime_probe", &setup, &out.received);
    check_golden("channels.txt", &s);
}
