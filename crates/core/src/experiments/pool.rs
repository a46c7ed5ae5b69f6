//! The channel pool: one end-to-end session body, [`channel_point`], run
//! over many seeds split from one root.
//!
//! The paper's quantitative claims are statistical: the Fig. 6 BER
//! contrast and the §5.4 headline numbers pool many independent sessions.
//! Two runners drive the same body:
//!
//! * [`mee_sweep::Sweep::try_seed_sweep`] returns every [`ChannelPoint`]
//!   in memory, in session order, bit-identical to serial execution for
//!   any thread count;
//! * [`run_channel_campaign`] streams each point's
//!   [`series`](ChannelPoint::series) into constant-memory aggregates
//!   through [`mee_campaign`], checkpoints completed shards, and survives
//!   kills, per-shard panics, and hangs.
//!
//! Either way session `i` of root seed `r` is exactly
//! `channel_point(stream_seed(r, i), cfg, bits)`, so every pooled number
//! replays one session at a time.

use mee_campaign::{Campaign, CampaignError, CampaignOutcome, CampaignPlan};
use mee_sweep::percentile;
use mee_types::{Cycles, ModelError};

use crate::channel::{random_bits, ChannelConfig, Session};
use crate::setup::AttackSetup;

/// Series schema of a channel campaign, in order.
pub const CHANNEL_SERIES: [&str; 5] = [
    "ber",
    "kbps",
    "elapsed_cycles",
    "probe_p50_cycles",
    "probe_p95_cycles",
];

/// One channel session, reduced to the numbers the statistical tests and
/// the campaign series pool.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPoint {
    /// The session's seed (replay: `channel_point(seed, cfg, bits)`).
    pub seed: u64,
    /// Payload length in bits.
    pub bits: usize,
    /// Positional bit errors.
    pub bit_errors: usize,
    /// Achieved rate in KB/s of simulated time.
    pub kbps: f64,
    /// Simulated duration of the transmission.
    pub elapsed: Cycles,
    /// Median spy probe time.
    pub probe_p50: Cycles,
    /// 95th-percentile spy probe time.
    pub probe_p95: Cycles,
}

impl ChannelPoint {
    /// Bit error rate in `[0, 1]`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.bit_errors as f64 / self.bits as f64
    }

    /// The point as one campaign sample, in [`CHANNEL_SERIES`] order.
    #[must_use]
    pub fn series(&self) -> Vec<f64> {
        vec![
            self.error_rate(),
            self.kbps,
            self.elapsed.raw() as f64,
            self.probe_p50.raw() as f64,
            self.probe_p95.raw() as f64,
        ]
    }
}

/// Runs one end-to-end channel session: a noisy machine built from
/// `seed`, establishment with `cfg`, and a transmission of `bits`
/// seed-derived random bits.
///
/// # Errors
///
/// Propagates machine-construction, establishment, and transmission
/// errors.
pub fn channel_point(
    seed: u64,
    cfg: &ChannelConfig,
    bits: usize,
) -> Result<ChannelPoint, ModelError> {
    let mut setup = AttackSetup::new(seed)?;
    let session = Session::establish(&mut setup, cfg)?;
    let out = session.transmit(&mut setup, &random_bits(bits, seed))?;
    let mut probes: Vec<u64> = out.probe_times.iter().map(|t| t.raw()).collect();
    probes.sort_unstable();
    Ok(ChannelPoint {
        seed,
        bits,
        bit_errors: out.errors.count(),
        kbps: out.kbps,
        elapsed: out.elapsed,
        probe_p50: Cycles::new(percentile(&probes, 50.0)),
        probe_p95: Cycles::new(percentile(&probes, 95.0)),
    })
}

/// Runs a channel campaign: one [`channel_point`] per campaign session,
/// aggregated into the [`CHANNEL_SERIES`] schema. The body-version tag
/// `channel/v1` names the session computation; bump it whenever
/// [`channel_point`] changes, so stale checkpoints are refused instead of
/// silently mixed in.
///
/// # Errors
///
/// [`CampaignError`] for orchestration faults (corrupt checkpoint,
/// non-empty dir, injected abort…). Per-session model errors do **not**
/// fail the campaign — a session is a pure function of its seed, so its
/// shard is quarantined on that first attempt, and the outcome reports
/// exactly which sessions are missing.
pub fn run_channel_campaign(
    plan: CampaignPlan,
    cfg: &ChannelConfig,
    bits: usize,
) -> Result<CampaignOutcome, CampaignError> {
    let series = CHANNEL_SERIES.iter().map(|s| (*s).to_owned()).collect();
    let campaign = Campaign::new(plan, series, "channel/v1")?;
    campaign.run(|spec, _ctx| {
        channel_point(spec.seed, cfg, bits)
            .map(|p| p.series())
            .map_err(|e| e.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_sweep::Sweep;

    #[test]
    fn campaign_series_follow_the_point_fields() {
        // Each campaign series must pool the ChannelPoint field of the same
        // name: its min and max over two sessions are exactly that field's
        // min and max over the same sessions run through a plain sweep.
        let cfg = ChannelConfig::sweep_setup();
        let points = Sweep::serial()
            .try_seed_sweep(2019, 2, |spec| channel_point(spec.seed, &cfg, 8))
            .unwrap();
        let outcome = run_channel_campaign(
            CampaignPlan::new("test/channel", 2019, 2, 2).threads(2),
            &cfg,
            8,
        )
        .unwrap();
        assert!(outcome.is_complete());
        let field = |name: &str, p: &ChannelPoint| match name {
            "ber" => p.error_rate(),
            "kbps" => p.kbps,
            "elapsed_cycles" => p.elapsed.raw() as f64,
            "probe_p50_cycles" => p.probe_p50.raw() as f64,
            "probe_p95_cycles" => p.probe_p95.raw() as f64,
            _ => unreachable!("unknown series {name}"),
        };
        for name in CHANNEL_SERIES {
            let stats = outcome.aggregate.series(name).unwrap().stats;
            let values: Vec<f64> = points.iter().map(|p| field(name, p)).collect();
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!((stats.min, stats.max), (min, max), "series {name}");
        }
    }
}
